"""Golden test for the JSONL metrics schema.

Every record emitted through ``--metrics`` (or any :class:`JSONLSink`)
must match the schema documented in ``docs/observability.md`` *exactly*
-- same key set, same value types.  Downstream consumers (the BENCH
artifacts, ad-hoc ``jq`` pipelines) parse these records, so adding,
removing or retyping a field is a breaking change: when this test
fails, bump ``SCHEMA_VERSION`` and update the docs along with the
golden tables below.
"""

from __future__ import annotations

import io
import json

from repro import obs
from repro.api import Session
from repro.lang.parser import parse_database, parse_program, parse_query
from repro.data.database import Database
from repro.obs import JSONLSink
from repro.obs.tracer import SCHEMA_VERSION

# The golden schema: record type -> {field: allowed value types}.
# ``parent`` is the only nullable field (None on root spans).
GOLDEN_FIELDS = {
    "span": {
        "v": int,
        "type": str,
        "name": str,
        "id": int,
        "parent": (int, type(None)),
        "depth": int,
        "start_ms": (int, float),
        "dur_ms": (int, float),
        "attrs": dict,
    },
    "event": {
        "v": int,
        "type": str,
        "name": str,
        "at_ms": (int, float),
        "attrs": dict,
    },
    "counter": {
        "v": int,
        "type": str,
        "name": str,
        "value": (int, float),
    },
    "histogram": {
        "v": int,
        "type": str,
        "name": str,
        "count": int,
        "sum": (int, float),
        "min": (int, float),
        "max": (int, float),
        "mean": (int, float),
    },
}


def _emit_all_record_types() -> list[dict]:
    """A real pipeline run that produces every record type."""
    buffer = io.StringIO()
    rules = parse_program("r1: a(X) -> b(X). r2: b(X) -> c(X).")
    database = Database(parse_database("a(one). b(two)."))
    query = parse_query("q(X) :- c(X)")
    with obs.use(JSONLSink(buffer)):
        Session(rules).answer(query, database)
        obs.event("golden.event", detail="x")
        obs.observe("golden.histogram", 1.5)
        obs.observe("golden.histogram", 2.5)
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


def test_schema_version_is_current():
    assert SCHEMA_VERSION == 1


def test_every_record_type_is_exercised():
    kinds = {record["type"] for record in _emit_all_record_types()}
    assert kinds == set(GOLDEN_FIELDS)


def test_records_match_golden_schema_exactly():
    records = _emit_all_record_types()
    assert records, "pipeline emitted nothing"
    for record in records:
        golden = GOLDEN_FIELDS[record["type"]]
        assert set(record) == set(golden), (
            f"record keys drifted from golden schema: {record}"
        )
        assert record["v"] == SCHEMA_VERSION
        for field, expected in golden.items():
            assert isinstance(record[field], expected), (
                f"{record['type']}.{field} has type "
                f"{type(record[field]).__name__}, expected {expected}: "
                f"{record}"
            )


def test_attrs_values_are_json_scalars():
    """Span/event attrs must stay flat and JSON-scalar for consumers."""
    for record in _emit_all_record_types():
        for key, value in record.get("attrs", {}).items():
            assert isinstance(key, str)
            assert isinstance(value, (str, int, float, bool, type(None))), (
                f"attr {key}={value!r} is not a JSON scalar"
            )


def test_span_parents_reference_earlier_ids():
    records = _emit_all_record_types()
    spans = [r for r in records if r["type"] == "span"]
    ids = {span["id"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            assert span["parent"] in ids
            assert span["depth"] >= 1
        else:
            assert span["depth"] == 0
