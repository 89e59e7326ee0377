"""The envelope writer: json.dumps(obj, indent=2) bytes, streamed."""

import dataclasses
import io
import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcatalan import cli
from wcatalan.morse import Mod3rPeriodCheck, PadicConflict, PadicFit
from wcatalan.periodicity import PeriodReport
from wcatalan.weights import ConditionReport, ConditionWitness

# characters that a re-indent by str.replace could confuse with structure
TEXT = st.text(st.sampled_from(['\n', '"', "\\", "}", ",", "{", "[", "]", " ", "a", "é", "☃"]))
SCALARS = (
    st.none()
    | st.booleans()
    | st.floats()  # includes inf, -inf and nan
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | TEXT
    | st.just("},\n{")
)
KEYS = TEXT | st.integers() | st.floats() | st.booleans() | st.none()
# flat rows whose key sets differ, some holding a one-item list
ROWS = st.lists(
    st.dictionaries(KEYS, SCALARS | st.lists(SCALARS, max_size=1), min_size=1), min_size=1
)
TREES = st.recursive(
    SCALARS | ROWS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=30,
)


def written(obj) -> str:
    out = io.StringIO()
    cli._write_json(obj, out.write)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(TREES)
def test_writer_matches_indented_json_dumps(obj):
    assert written(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj", [{(1,): 0}, [{"a": 1}, {(1,): 0}], [[1], {(1,): 0}], {"a": {1, 2}}]
)
def test_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        written(obj)
    assert str(got.value) == str(expected.value)


def fields_of(obj) -> dict:
    """A dataclass as the mapping of its fields, for json.dumps(default=...)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


PERIOD = PeriodReport(27, 1, 2, 200, True)
NO_PERIOD = PeriodReport(7, None, None, 10, False)  # None fields


@pytest.mark.parametrize(
    "obj",
    [
        PERIOD,
        NO_PERIOD,
        Mod3rPeriodCheck(3, 2, True, PERIOD),  # a nested dataclass
        Mod3rPeriodCheck(4, 6, False, NO_PERIOD),
        # a tuple of dataclasses, and the empty tuple of a consistent fit
        PadicFit(2, (1, 1, 0, 0), 4, 3, 16, False,
                 (PadicConflict(3, 8, 4), PadicConflict(5, 1, 0))),
        PadicFit(5, (), 0, 0, 1, True, ()),
        ConditionReport("ps", False, "all-x", (0, 3), {"b0-odd": True, "x": False},
                        (ConditionWitness("x", None, 0, 2), ConditionWitness("x", 1, 4, -6))),
        ConditionReport("main", True, "window", (2, 5), {}, ()),
        {"fit": PadicFit(2, (1,), 1, 1, 2, True, ()), "rows": [PERIOD, None, ()]},
    ],
)
def test_writer_renders_a_dataclass_as_the_mapping_of_its_fields(obj):
    assert written(obj) == json.dumps(obj, indent=2, default=fields_of)


def test_rows_across_batches_match_indented_json_dumps():
    for count in (cli._COLUMN_BATCH, 2 * cli._COLUMN_BATCH + 1):
        rows = [{"shape": "()" * i, "size": i} for i in range(count)]
        assert written({"result": rows}) == json.dumps({"result": rows}, indent=2)


def test_rows_whose_key_order_changes_mid_list():
    rows = [{"a": i, "b": str(i)} for i in range(5)]
    rows[3] = {"b": "3", "a": 3}
    rows.append({"a": 5})
    assert written(rows) == json.dumps(rows, indent=2)
    # keys that compare equal but are spelled apart
    rows = [{1: "a"}, {True: "b"}, {1.0: "c"}, {0.0: "d"}, {-0.0: "e"}]
    assert written(rows) == json.dumps(rows, indent=2)


def test_row_keys_with_format_characters():
    keys = ["{", "}", "%", "%s", "{0}", "", "%%d", '"\n"']
    rows = [{k: f"{k}{i}" if i % 2 else i for k in keys} for i in range(3)]
    rows += [{k: v for k, v in rows[0].items()}]
    assert written({"rows": rows}) == json.dumps({"rows": rows}, indent=2)


@pytest.mark.parametrize("count", [0, 1, 3, 2 * cli._COLUMN_BATCH + 1])
def test_table_with_shared_scalars_matches_its_rows(count):
    columns = {"%": 7, "shape": ["(" * i + ")" * i for i in range(count)], "{": None,
               "size": tuple(range(count)), "": "x"}
    rows = [
        {k: v[i] if isinstance(v, (list, tuple)) else v for k, v in columns.items()}
        for i in range(count)
    ]
    assert written({"r": cli._Table(count, columns)}) == json.dumps({"r": rows}, indent=2)


def test_emit_streams_the_orbits_envelope(tmp_path, monkeypatch, capsys):
    assert cli.main(["orbits", "--n", "14", "--max-orbit-n", "14"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    path = tmp_path / "envelope.json"
    with open(path, "w") as out:
        monkeypatch.setattr("sys.stdout", out)
        tracemalloc.start()
        try:
            cli._emit("orbits", envelope["parameters"], envelope["result"], time.perf_counter())
            out.flush()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    # a whole-document json.dumps would peak above the size of the document
    assert peak < size
    assert json.loads(path.read_text())["result"] == envelope["result"]
