"""The column cache behind `load_jsonl` and the equivalence of its parse.

`helpers.oracle_load_jsonl` is the loader as it was before the cache. Every
file, valid or not, must load to bit-equal columns or fail with the oracle's
message and line, with or without a sidecar next to it. Where the oracle
fails without a name (invalid UTF-8, header dims too large to allocate, an
integer literal too long or nesting too deep to parse), `load_jsonl` must
raise the `DataValidationError` that names it, on the line it belongs to.
"""

import base64
import json
import os
import re
import shutil
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amber import dataio
from amber.dataio import SCHEMA, load_jsonl
from amber.errors import DataValidationError

from helpers import oracle_load_jsonl

HEADER = {"schema": SCHEMA, "C": 3, "dim_a": 2, "dim_t": 2, "folds": 3}
RECORDS = [
    {"id": "s0", "h_a": [0.5, -1.25], "h_t": [3, 0.001], "votes": [2, 2, 1]},
    {"id": "s1", "h_a": [1e300, -0.0], "h_t": [-7, 2.5e-310], "votes": [0, 4, 0], "y": [0.0, 1.0, 0.0]},
    {"id": "café-2", "h_a": [0.1, 0.2], "h_t": [0.3, 0.4], "votes": [1, 1, 1]},
    {"id": "s3", "h_a": [12345678901234567890, 1.5], "h_t": [0.0, -3.75], "votes": [9, 0, 1]},
    {"id": "s4", "h_a": [-2.0, 2.0], "h_t": [1e-5, 1e5], "votes": [3, 3, 4611686018427387904]},
    {"id": "s5", "h_a": [0.7, 0.8], "h_t": [0.9, 1.0], "votes": [1, 0, 0], "y": [1, 0, 0]},
]


def _jsonl(records):
    """The dataset file of `records` under HEADER, non-ASCII text written raw."""
    return "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in [HEADER, *records]).encode()


BASE = _jsonl(RECORDS)


def _sidecar(path):
    return Path(path).with_name(f".{Path(path).name}.amber-cache")


def assert_same_dataset(got, want):
    assert got.fold_count == want.fold_count
    assert got.ids.dtype == want.ids.dtype == object and got.ids.tolist() == want.ids.tolist()
    for key in ("h_a", "h_t", "votes", "y"):
        column, other = getattr(want, key), getattr(got, key)
        assert (other.dtype, other.shape) == (column.dtype, column.shape), key
        assert other.tobytes() == column.tobytes(), key
        assert other.flags.writeable == column.flags.writeable, key


def _outcome(load, path):
    """The dataset `load` returns, or (type, message, line) of what it raises."""
    try:
        return load(path)
    except UnicodeDecodeError:
        # The oracle's only failure without a line: the expected one is the
        # line holding the first byte that is not UTF-8.
        lines = Path(path).read_bytes().decode("utf-8", errors="surrogateescape").split("\n")
        line = next(i for i, text in enumerate(lines, start=1) if re.search("[\udc80-\udcff]", text))
        return DataValidationError, "invalid UTF-8", line
    except (ValueError, RecursionError) as exc:
        if load is oracle_load_jsonl and not isinstance(exc, DataValidationError):
            exc = _named_error(path, exc)
        return type(exc), str(exc), getattr(exc, "line", None)


def _json_error_type(text):
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return type(exc)
    return None


def _named_error(path, exc):
    """What `load_jsonl` raises where the oracle fails with the unnamed `exc`.

    Either header dims too large to allocate (a `ValueError` from `np.empty`,
    line 1), or the first line whose integer literal is too long for `int()`
    or whose nesting is too deep for `json.loads`.
    """
    if type(exc) is ValueError and "integer string conversion" not in str(exc):
        return DataValidationError("header dimensions too large to allocate", line=1, path=path)
    lines = Path(path).read_bytes().decode("utf-8").split("\n")
    line = next(i for i, text in enumerate(lines, start=1) if _json_error_type(text) is type(exc))
    reason = "nested too deeply" if type(exc) is RecursionError else "integer literal too long"
    return DataValidationError(f"malformed JSON ({reason})", line=line, path=path)


def assert_loads_like_the_oracle(path):
    want = _outcome(oracle_load_jsonl, path)
    got = _outcome(load_jsonl, path)
    if isinstance(want, tuple):
        assert isinstance(got, tuple), f"loaded, but the oracle raised {want}"
        kind, message, line = want
        assert got[0] is kind and got[2] == line
        assert message in got[1] if message == "invalid UTF-8" else got[1] == message
    else:
        assert not isinstance(got, tuple), f"raised {got}, but the oracle loaded"
        assert_same_dataset(got, want)


def check_equivalence(mutant):
    """Cold, warm on the mutant's own sidecar, and over the unmutated file's sidecar."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.jsonl"
        path.write_bytes(mutant)
        assert_loads_like_the_oracle(path)  # cold: no sidecar
        assert_loads_like_the_oracle(path)  # the mutant's own sidecar, if it loaded
        for sidecar in Path(tmp).glob(".*.amber-cache"):
            sidecar.unlink()
        path.write_bytes(BASE)
        load_jsonl(path)
        path.write_bytes(mutant)
        assert_loads_like_the_oracle(path)  # the unmutated file's sidecar


# ---------------------------------------------------------------------------
# equivalence with the oracle

_BYTES = list(b'0123456789-+.eE"{}[],: \n\rxyNIaf\\') + [0xFF, 0xC3, 0x80]
_NUMBER = re.compile(rb"-?\d+(\.\d+)?([eE][-+]?\d+)?")
_ID = re.compile(rb'"id": "[^"]*"')


def _mutate(data, draw):
    """`data` with one edit of a kind that damaged or hand-edited files show."""
    kind = draw(st.sampled_from(["flip", "delete", "insert", "swap", "blank", "duplicate-id",
                                 "non-finite", "over-range", "bad-utf-8"]))
    at = draw(st.integers(0, max(len(data) - 1, 0)))
    if kind == "flip":
        return data[:at] + bytes([draw(st.sampled_from(_BYTES))]) + data[at + 1:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    if kind == "insert":
        return data[:at] + bytes([draw(st.sampled_from(_BYTES))]) + data[at:]
    if kind == "bad-utf-8":
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"])) + data[at:]
    lines = data.split(b"\n")
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    if kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "blank":
        lines.insert(i, draw(st.sampled_from([b"", b"  ", b"\t"])))
    elif kind == "duplicate-id":
        source, target = _ID.search(lines[i]), _ID.search(lines[j])
        if source and target:
            lines[j] = lines[j][:target.start()] + source.group() + lines[j][target.end():]
    else:
        numbers = list(_NUMBER.finditer(lines[i]))
        if numbers:
            number = draw(st.sampled_from(numbers))
            values = ([b"NaN", b"Infinity", b"-Infinity"] if kind == "non-finite"
                      else [b"1" + b"0" * 400, b"-1" + b"0" * 400, b"9223372036854775808", b"-1"])
            lines[i] = lines[i][:number.start()] + draw(st.sampled_from(values)) + lines[i][number.end():]
    return b"\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_mutant_loads_like_the_oracle_cold_and_warm(data):
    mutant = BASE
    for _ in range(data.draw(st.integers(1, 3))):
        mutant = _mutate(mutant, data.draw)
    check_equivalence(mutant)


def _replace_line(number, text):
    lines = BASE.split(b"\n")
    lines[number - 1] = text
    return b"\n".join(lines)


@pytest.mark.parametrize("mutant", [
    BASE,
    BASE.replace(b"0.5", b"NaN", 1),
    BASE.replace(b"-7", b"-Infinity", 1),
    BASE.replace(b"12345678901234567890", b"1" + b"0" * 400, 1),
    BASE.replace(b"[1, 0, 0]", b"[1, 0, 10000000000000000000]", 1),
    BASE.replace(b"4611686018427387904", b"9223372036854775806", 1),
    BASE.replace(b'"s3"', b'"s1"', 1),
    BASE.replace(b'"s3"', b'""', 1),
    BASE.replace(b"[0.0, 1.0, 0.0]", b"[0.5, 0.5, 0.0]", 1),
    _replace_line(4, b'{"id": "s2", "h_a": [0.1, 0.2], \xff "h_t": [0.3, 0.4], "votes": [1, 1, 1]}'),
    _replace_line(5, b""),
    BASE.replace(b"\n", b"\r\n"),
    BASE.replace(b"\n", b"\r"),
    BASE[: len(BASE) // 2],
    b"",
    b"\n\n",
    BASE.replace(b'"dim_a": 2', b'"dim_a": 1' + b"0" * 400, 1),
    BASE.replace(b'"dim_t": 2', b'"dim_t": 4611686018427387904', 1),
    BASE.replace(b"12345678901234567890", b"1" * 5000, 1),
    BASE.replace(b"[0.1, 0.2]", b"[" * 100_000 + b"]" * 100_000, 1),
], ids=["valid", "nan", "inf", "huge-int-feature", "huge-vote", "vote-total-2**63",
        "duplicate-id", "empty-id", "wrong-y", "bad-utf-8", "blank-line", "crlf", "cr",
        "truncated", "empty", "blank-only", "dim-10**400", "dim-2**62", "5000-digit-literal",
        "nested-100000-deep"])
def test_named_mutants_load_like_the_oracle_cold_and_warm(mutant):
    check_equivalence(mutant)


# ---------------------------------------------------------------------------
# the sidecar


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_bytes(BASE)
    return path


def test_a_hit_is_bit_equal_to_a_miss_and_parses_nothing(dataset, monkeypatch):
    cold = load_jsonl(dataset)
    assert _sidecar(dataset).exists()
    monkeypatch.setattr(dataio, "_parse", lambda *args: pytest.fail("parsed on a hit"))
    warm = load_jsonl(dataset)
    assert_same_dataset(warm, cold)
    assert warm.sha256 == cold.sha256 == dataio.hashlib.sha256(BASE).hexdigest()


def test_an_edit_after_caching_is_parsed_again(dataset):
    load_jsonl(dataset)
    dataset.write_bytes(_replace_line(7, b'{"id": "s5", "h_a": [0.7, 0.8], "h_t": [0.9, 1.0], "votes": [0, 0, 0]}'))
    with pytest.raises(DataValidationError, match="line 7: invalid votes") as exc:
        load_jsonl(dataset)
    assert exc.value.line == 7


# (column, dtype, header key of its width) in the order of the sidecar's body
_COLUMNS = (("h_a", "<f8", "dim_a"), ("h_t", "<f8", "dim_t"), ("votes", "<i8", "C"))


def _read_sidecar(path):
    """(header, body) of a sidecar: its first line as JSON, then the bytes after it."""
    header, body = _sidecar(path).read_bytes().split(b"\n", 1)
    return json.loads(header), body


def _write_sidecar(path, header, body):
    _sidecar(path).write_bytes(json.dumps(header).encode() + b"\n" + body)


def _edit_sidecar(path, **changes):
    header, body = _read_sidecar(path)
    header.update(changes)
    _write_sidecar(path, header, body)


def _columns(path):
    """The sidecar's header and its body split into writable (rows, width) columns."""
    header, body = _read_sidecar(path)
    rows, offset, columns = len(header["ids"]), 0, {}
    for key, dtype, width in _COLUMNS:
        count = rows * header[width]
        columns[key] = np.frombuffer(body, dtype, count, offset).reshape(rows, header[width]).copy()
        offset += 8 * count
    return header, columns


def _write_columns(path, header, columns):
    _write_sidecar(path, header, b"".join(columns[k].tobytes() for k, _, _ in _COLUMNS))


def _edit_column(path, key, dtype, index, value):
    header, columns = _columns(path)
    assert columns[key].dtype == np.dtype(dtype)
    columns[key][index] = value
    _write_columns(path, header, columns)


def _short_column(path):
    header, columns = _columns(path)
    columns["h_t"] = np.zeros((6, 1))
    _write_columns(path, header, columns)


def _base64(column, dtype):
    return base64.b64encode(np.ascontiguousarray(column, dtype=dtype)).decode("ascii")


def _base64_body(path):
    """The columns as the base64 text the v1 sidecar held, not as raw bytes."""
    header, columns = _columns(path)
    text = "".join(_base64(columns[k], dtype) for k, dtype, _ in _COLUMNS)
    _write_sidecar(path, header, text.encode())


def _v1_sidecar(path):
    """The sidecar the v1 format wrote: one JSON object with base64 columns."""
    header, columns = _columns(path)
    header["format"] = "amber-ds-cache-v1"
    header.update({k: _base64(columns[k], dtype) for k, dtype, _ in _COLUMNS})
    _sidecar(path).write_text(json.dumps(header) + "\n")


def _resize_body(path, change):
    data = _sidecar(path).read_bytes()
    _sidecar(path).write_bytes(data[:change] if change < 0 else data + b"\0" * change)


_DAMAGE = {
    "truncated": lambda p: _sidecar(p).write_bytes(_sidecar(p).read_bytes()[:100]),
    "garbled": lambda p: _sidecar(p).write_bytes(b"\xff\x00" + _sidecar(p).read_bytes()[2:]),
    "empty": lambda p: _sidecar(p).write_bytes(b""),
    "not-an-object": lambda p: _sidecar(p).write_bytes(b"[1, 2]\n" + _read_sidecar(p)[1]),
    "wrong-tag": lambda p: _edit_sidecar(p, format="amber-ds-cache-v0"),
    "wrong-digest": lambda p: _edit_sidecar(p, sha256="0" * 64),
    "bool-dim": lambda p: _edit_sidecar(p, dim_a=True),
    "unknown-header-key": lambda p: _edit_sidecar(p, rows=6),
    "missing-header-key": lambda p: _write_sidecar(p, {k: v for k, v in _read_sidecar(p)[0].items() if k != "folds"},
                                                   _read_sidecar(p)[1]),
    "more-folds-than-rows": lambda p: _edit_sidecar(p, folds=7),
    # widths that sum to the stored ones, so the body length matches
    "negative-dim": lambda p: _edit_sidecar(p, dim_a=-1, dim_t=5),
    "zero-dim": lambda p: _edit_sidecar(p, dim_a=0, dim_t=4),
    "one-class": lambda p: _edit_sidecar(p, C=1, dim_t=4),
    "short-column": _short_column,
    "not-base64": _base64_body,
    "nan": lambda p: _edit_column(p, "h_a", "<f8", (2, 1), np.nan),
    "inf": lambda p: _edit_column(p, "h_t", "<f8", (0, 0), -np.inf),
    "negative-vote": lambda p: _edit_column(p, "votes", "<i8", (3, 1), -1),
    "zero-votes": lambda p: _edit_column(p, "votes", "<i8", 1, 0),
    # each vote fits int64; their total, 2**64 + 1, wraps to 1 in a 64-bit sum
    "vote-total-2**64+1": lambda p: _edit_column(p, "votes", "<i8", 4, [2**63 - 1, 2**63 - 1, 3]),
    "duplicate-ids": lambda p: _edit_sidecar(p, ids=["s0", "s1", "s2", "s3", "s4", "s0"]),
    "empty-id": lambda p: _edit_sidecar(p, ids=["s0", "s1", "s2", "", "s4", "s5"]),
    "int-id": lambda p: _edit_sidecar(p, ids=["s0", "s1", "s2", 3, "s4", "s5"]),
    "directory": lambda p: (_sidecar(p).unlink(), _sidecar(p).mkdir()),
    "body-one-byte-short": lambda p: _resize_body(p, -1),
    "body-one-byte-long": lambda p: _resize_body(p, 1),
    "header-without-newline": lambda p: _sidecar(p).write_bytes(_sidecar(p).read_bytes().replace(b"\n", b"", 1)),
    "v1-sidecar": _v1_sidecar,
    "v2-sidecar": lambda p: _edit_sidecar(p, format="amber-ds-cache-v2"),
    "v3-sidecar": lambda p: _edit_sidecar(p, format="amber-ds-cache-v3"),
}


@pytest.mark.parametrize("damage", list(_DAMAGE))
def test_a_damaged_or_invalid_sidecar_is_a_miss_and_is_rewritten(dataset, damage):
    want = oracle_load_jsonl(dataset)
    load_jsonl(dataset)
    written = _sidecar(dataset).read_bytes()
    _DAMAGE[damage](dataset)
    assert_same_dataset(load_jsonl(dataset), want)
    if damage != "directory":
        assert _sidecar(dataset).read_bytes() == written


def test_a_read_only_directory_loads_and_writes_no_file(dataset, monkeypatch):
    real_open = open

    def read_only_open(file, mode="r", *args, **kwargs):
        if Path(file).parent == dataset.parent and any(c in mode for c in "wax+"):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, mode, *args, **kwargs)

    # chmod alone does not stop a process running as root from writing
    monkeypatch.setattr(dataio, "open", read_only_open, raising=False)
    dataset.parent.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        assert_same_dataset(load_jsonl(dataset), oracle_load_jsonl(dataset))
        assert os.listdir(dataset.parent) == ["ds.jsonl"]
    finally:
        dataset.parent.chmod(stat.S_IRWXU)


def test_a_cold_and_a_warm_load_each_open_the_dataset_once(dataset, monkeypatch):
    real_open, opens = open, []

    def counting_open(file, *args, **kwargs):
        opens.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(dataio, "open", counting_open, raising=False)
    for warm in (False, True):
        assert _sidecar(dataset).exists() is warm
        opens.clear()
        ds = load_jsonl(dataset)
        assert opens.count(dataset) == 1, warm
        assert ds.sha256 == dataio.hashlib.sha256(dataset.read_bytes()).hexdigest()


def test_cold_loads_write_identical_sidecar_bytes(dataset):
    other = dataset.with_name("other.jsonl")
    shutil.copy(dataset, other)
    load_jsonl(dataset)
    load_jsonl(other)
    first = _sidecar(dataset).read_bytes()
    _sidecar(dataset).unlink()
    load_jsonl(dataset)
    assert _sidecar(dataset).read_bytes() == first == _sidecar(other).read_bytes()
    header, body = _read_sidecar(dataset)
    assert list(header) == ["format", "sha256", "C", "dim_a", "dim_t", "folds", "ids"]
    assert header["format"] == dataio.CACHE_FORMAT == "amber-ds-cache-v4"
    assert header["ids"] == [r["id"] for r in RECORDS]
    want = oracle_load_jsonl(dataset)
    assert body == b"".join(np.asarray(getattr(want, k), dtype).tobytes() for k, dtype, _ in _COLUMNS)


def test_invalid_utf8_names_the_line_of_the_first_bad_byte_and_writes_no_sidecar(dataset):
    dataset.write_bytes(_replace_line(4, b'{"id": "s2\xff", "h_a": [0.1, 0.2], "h_t": [0.3, 0.4], "votes": [1, 1, 1]}'))
    with pytest.raises(DataValidationError, match="line 4: invalid UTF-8") as exc:
        load_jsonl(dataset)
    assert exc.value.line == 4
    assert not _sidecar(dataset).exists()


# ---------------------------------------------------------------------------
# line breaks: a record ends at "\n" alone


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
def test_an_id_holding_a_unicode_line_break_loads_cold_and_from_the_sidecar(dataset, char, monkeypatch):
    records = [dict(r) for r in RECORDS]
    records[1]["id"] = f"s{char}1"
    dataset.write_bytes(_jsonl(records))
    assert char.encode() in dataset.read_bytes()  # written raw, as `ensure_ascii=False` writes it
    cold = load_jsonl(dataset)
    assert cold.ids[1] == f"s{char}1"
    assert_same_dataset(cold, oracle_load_jsonl(dataset))
    monkeypatch.setattr(dataio, "_parse", lambda *args: pytest.fail("parsed on a hit"))
    assert_same_dataset(load_jsonl(dataset), cold)


def test_invalid_utf8_after_a_unicode_line_break_names_its_own_line(dataset):
    records = [dict(r) for r in RECORDS]
    records[0]["id"] = "s\u20280"
    lines = _jsonl(records).split(b"\n")
    lines[2] = lines[2].replace(b'"id": "', b'"id": "\xff', 1)
    dataset.write_bytes(b"\n".join(lines))
    with pytest.raises(DataValidationError, match="line 3: invalid UTF-8") as exc:
        load_jsonl(dataset)
    assert exc.value.line == 3


def test_a_crlf_file_loads_the_columns_of_its_lf_twin(dataset):
    crlf = dataset.with_name("crlf.jsonl")
    crlf.write_bytes(BASE.replace(b"\n", b"\r\n"))
    lf = load_jsonl(dataset)
    assert_same_dataset(load_jsonl(crlf), lf)  # cold
    assert_same_dataset(load_jsonl(crlf), lf)  # from its sidecar


def test_a_line_of_spaces_tabs_or_cr_stays_blank(dataset):
    lines = BASE.split(b"\n")
    spaced = dataset.with_name("spaced.jsonl")
    spaced.write_bytes(b"\n".join([*lines[:2], b" ", *lines[2:4], b"\t", b"\r", b" \t\r \t", *lines[4:]]))
    lf = load_jsonl(dataset)
    assert_same_dataset(oracle_load_jsonl(spaced), lf)
    assert_same_dataset(load_jsonl(spaced), lf)  # cold
    assert_same_dataset(load_jsonl(spaced), lf)  # from its sidecar
