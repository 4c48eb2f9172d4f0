"""Report assembly: exact percentages, summaries, identical facts."""

import io
import json
import math
import os
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from remnant.report import (
    JSON_BATCH,
    RecoveredFile,
    dump_json,
    exact_percent,
    make_report,
    render_text,
    summarize,
    write_json,
    write_text,
)
from remnant.volume import merge_runs


# --------------------------------------------------------- exact_percent

def test_percent_is_an_exact_rational_not_a_float_artifact():
    assert exact_percent(1, 3) == 33.3
    assert exact_percent(2, 3) == 66.7
    assert exact_percent(1, 1) == 100.0
    assert exact_percent(0, 7) == 0.0
    assert exact_percent(15, 15) == 100.0


def test_percent_rounds_half_up():
    assert exact_percent(1, 200) == 0.5    # 0.5 exactly, stays 0.5
    assert exact_percent(1, 2000) == 0.1   # 0.05% -> rounds up to 0.1
    assert exact_percent(1, 16) == 6.3     # 6.25 -> 6.3


def test_percent_of_nothing_is_null():
    assert exact_percent(0, 0) is None
    assert exact_percent(5, 0) is None


@given(n=st.integers(min_value=0, max_value=10_000),
       d=st.integers(min_value=1, max_value=10_000))
def test_percent_bounds_and_exactness(n, d):
    p = exact_percent(n, d)
    assert 0.0 <= p <= 100.0 * max(1, (n + d - 1) // d + 1)
    # One decimal place, always.
    assert round(p, 1) == p
    if n == d:
        assert p == 100.0


# ---------------------------------------------------------- cluster runs

def test_cluster_runs_collapse_contiguity():
    def runs(clusters):
        return merge_runs((c, 1) for c in clusters)
    assert runs([5, 6, 7, 9, 12, 13]) == [[5, 3], [9, 1], [12, 2]]
    assert runs([]) == []
    assert runs([4]) == [[4, 1]]
    assert merge_runs([(5, 2), (7, 3), (11, 1)]) == [[5, 5], [11, 1]]


# ------------------------------------------------------------- summaries

def _rf(name, cls, size, sha, conf="exact"):
    return RecoveredFile(name=name, size=size, sha256=sha, file_class=cls,
                         confidence=conf, source={})


def test_summary_against_ground_truth():
    truth = [
        {"path": "A.PDF", "class": "document", "size": 10, "sha256": "h1"},
        {"path": "B.PDF", "class": "document", "size": 20, "sha256": "h2"},
        {"path": "C.JPG", "class": "image", "size": 30, "sha256": "h3"},
    ]
    files = [_rf("A.PDF", "document", 10, "h1"),
             _rf("C.JPG", "image", 30, "h3"),
             _rf("X.BIN", "unknown", 5, "h9")]     # extra, not in truth
    s = summarize(files, truth)
    by_class = {r["class"]: r for r in s["classes"]}
    assert by_class["document"]["attempted"] == 2
    assert by_class["document"]["byte_identical"] == 1
    assert by_class["document"]["percent"] == 50.0
    assert by_class["image"]["percent"] == 100.0
    assert s["totals"]["attempted"] == 3
    assert s["totals"]["byte_identical"] == 2
    assert s["totals"]["percent"] == exact_percent(2, 3) == 66.7
    assert s["totals"]["bytes_recovered"] == 45


def test_summary_without_truth_has_null_percentages():
    files = [_rf("A.PDF", "document", 10, "h1")]
    s = summarize(files)
    assert all(r["percent"] is None for r in s["classes"])
    assert s["totals"]["percent"] is None
    assert s["totals"]["listed"] == 1


def test_summary_of_nothing():
    s = summarize([], truth_files=[])
    assert s["totals"]["attempted"] == 0
    assert s["totals"]["percent"] is None
    assert s["totals"]["bytes_recovered"] == 0


# -------------------------------------------------------------- reports

def test_recovered_file_dict_never_leaks_payload_bytes():
    f = RecoveredFile(name="A", size=3, sha256="h", file_class="document",
                      confidence="exact", source={"entry": "record-9"},
                      extents=[b"\x00\x01\x02"])
    d = f.to_dict()
    assert "extents" not in d
    assert b"\x00\x01\x02" not in json.dumps(d).encode()
    assert d["source"]["entry"] == "record-9"
    json.dumps(d)  # everything serializable


def test_make_report_fills_the_envelope():
    rep = make_report({"command": "scan", "image": "x.img"})
    assert rep["meta"]["tool"]
    assert rep["meta"]["schema_version"]
    assert rep["meta"]["command"] == "scan"
    assert rep["summary"] is None
    assert rep["files"] == []
    assert rep["audit"] is None
    assert rep["simulation"] is None


def _written(value, writer=write_json) -> str:
    out = io.StringIO()
    writer(value, out)
    return out.getvalue()


def test_json_and_text_carry_the_same_facts():
    truth = [{"path": "A.PDF", "class": "document", "size": 10, "sha256": "h1"}]
    files = [_rf("A.PDF", "document", 10, "h1")]
    rep = make_report({"command": "recover", "image": "x.img"},
                      summary=summarize(files, truth), files=files)
    blob = json.loads(_written(rep, dump_json))
    text = render_text(rep)
    # Every scalar fact in the machine report appears in the rendering.
    assert blob["meta"]["image"] in text
    assert "100.0%" in text
    assert "A.PDF" in text
    assert blob["files"][0]["sha256"] in text
    assert blob["summary"]["totals"]["attempted"] == 1
    # And the JSON is stable under a round trip.
    assert json.loads(_written(json.loads(_written(rep, dump_json)),
                               dump_json)) == blob


def test_text_rendering_of_audit_and_simulation_sections():
    rep = make_report(
        {"command": "audit", "image": "y.img"},
        audit={
            "truth_files": 1,
            "files": [{"path": "A.PDF", "class": "document",
                       "size_bytes": 10, "recoverable_bytes": 10,
                       "verdict": "RECOVERABLE"}],
            "total_bytes": 10, "recoverable_bytes": 10,
            "recoverable_files": 1, "partial_files": 0,
            "sanitized_files": 0, "verdict": "RECOVERABLE",
        })
    text = render_text(rep)
    assert "RECOVERABLE" in text
    assert "A.PDF" in text
    assert "10" in text

    sim = make_report(
        {"command": "simulate"},
        simulation={"experiment": "overwrite", "lpn": 0, "k": 5,
                    "read_erased": True,
                    "remanence": {"payloads": [], "live_copies": 1,
                                  "stale_copies": 4, "retired_copies": 0,
                                  "recoverable_bytes": 8192},
                    "state_hash": "ab" * 32})
    text = render_text(sim)
    assert "overwrite" in text
    assert "8192" in text or "8,192" in text


# ------------------------------------------------------------ JSON writer

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf"),
                     float("-inf")]))


def _containers(children):
    """Lists, tuples, and dicts whose keys are of one kind each, so that
    ``sort_keys`` can order them; non-str keys are coerced."""
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.integers() | st.booleans(), children, max_size=4),
        st.dictionaries(st.floats(), children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1))


@given(value=st.recursive(_SCALARS, _containers, max_leaves=24))
@example(value={"": [], "a": {}, "\u00e9\x01\n\"": ((), [[]], {1.5: None})})
@example(value={True: -0.0, 3: [1e300, float("nan"), float("-inf")]})
def test_the_writer_writes_the_bytes_of_json_dumps(value):
    assert _written(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {"a": 1, 2: 3},              # keys sort_keys cannot order
    {(1, 2): "tuple key"},
    {"x": {1, 2}},
    [b"raw bytes"],
])
def test_the_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _written(value)


def _listing(rows: int) -> dict:
    """A scan-shaped report of ``rows`` short rows."""
    return make_report({"command": "scan"},
                       files=[{"name": "F%05d.TXT" % i, "size": i}
                              for i in range(rows)])


def _writer_peak(report: dict, writer=dump_json) -> int:
    with open(os.devnull, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            writer(report, sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_the_writer_holds_a_batch_of_rows_not_the_document():
    small, large = _listing(2_000), _listing(20_000)
    assert _writer_peak(large) <= _writer_peak(small) + 64 * 1024


def _scan_listing(rows: int) -> dict:
    """A scan-shaped report of ``rows`` deleted-file rows with every field
    the text rendering reads."""
    return make_report({"command": "scan"}, files=[
        {"name": "F%05d.TXT" % i, "path": "DATA", "size": i, "deleted": True,
         "is_directory": False, "confidence": "high", "flags": ["carved"],
         "modified": "2020-01-01T12:00:00"} for i in range(rows)])


def test_the_text_writer_holds_a_batch_of_lines_not_the_rendering():
    small, large = _scan_listing(2_000), _scan_listing(20_000)
    assert _written(large, write_text) == render_text(large)
    assert _writer_peak(large, write_text) \
        <= _writer_peak(small, write_text) + 64 * 1024


class _CountingSink(io.StringIO):
    """A text sink that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_both_writers_write_a_batch_at_a_time():
    """A writer that hands each encoder piece or text line to ``write``
    on its own holds little memory too, so only the number of writes
    tells the batches apart from it."""
    large = _scan_listing(20_000)
    pieces = sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True)
                 .iterencode(large))
    sink = _CountingSink()
    write_json(large, sink)
    assert sink.getvalue() == json.dumps(large, indent=2, sort_keys=True)
    assert sink.writes <= math.ceil(pieces / JSON_BATCH)

    lines = render_text(large).count("\n")
    sink = _CountingSink()
    write_text(large, sink)
    assert sink.writes <= math.ceil(lines / JSON_BATCH)
