#!/usr/bin/env python3
"""Validate a Trident --metrics-out snapshot against scripts/metrics_schema.json.

Stdlib-only (no jsonschema dependency): implements exactly the subset of
JSON Schema the snapshot schema uses — type/const/required/
additionalProperties/properties/items/minItems/minimum with the
["number","null"] union.  Exits 0 on success, 1 with a pointed message on
the first violation.

Usage: validate_metrics.py metrics.json [more.json ...]
       [--schema scripts/metrics_schema.json]
       validate_metrics.py --flight flight.json [more ...]

With --flight the inputs are flight-recorder dumps instead: a two-line
artifact whose header carries an FNV-1a 64 checksum over the payload line.
The checksum is recomputed here (same tiny hash the C++ writer uses), the
payload is JSON-parsed, and its record structure is checked.
"""

import argparse
import json
import os
import sys


class ValidationError(Exception):
    def __init__(self, path, message):
        super().__init__("%s: %s" % (path or "$", message))


def _type_ok(value, type_name):
    if type_name == "object":
        return isinstance(value, dict)
    if type_name == "array":
        return isinstance(value, list)
    if type_name == "integer":
        # bool is a subclass of int in Python; a JSON true is not an integer.
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "null":
        return value is None
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "boolean":
        return isinstance(value, bool)
    raise ValidationError("", "schema uses unsupported type %r" % type_name)


def validate(value, schema, path="$"):
    if "const" in schema:
        if value != schema["const"]:
            raise ValidationError(
                path, "expected constant %r, got %r" % (schema["const"], value))
        return

    if "type" in schema:
        types = schema["type"]
        if isinstance(types, str):
            types = [types]
        if not any(_type_ok(value, t) for t in types):
            raise ValidationError(
                path, "expected %s, got %s (%r)"
                % ("|".join(types), type(value).__name__, value))

    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        if value < schema["minimum"]:
            raise ValidationError(
                path, "value %r below minimum %r" % (value, schema["minimum"]))

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ValidationError(path, "missing required key %r" % key)
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, sub in value.items():
            sub_path = "%s.%s" % (path, key)
            if key in props:
                validate(sub, props[key], sub_path)
            elif isinstance(extra, dict):
                validate(sub, extra, sub_path)
            elif extra is False:
                raise ValidationError(path, "unexpected key %r" % key)

    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            raise ValidationError(
                path, "expected at least %d items, got %d"
                % (schema["minItems"], len(value)))
        items = schema.get("items")
        if isinstance(items, dict):
            for i, sub in enumerate(value):
                validate(sub, items, "%s[%d]" % (path, i))


def fnv1a64(data):
    """FNV-1a 64 — must match state::fnv1a64 in src/state/snapshot.cpp."""
    h = 1469598103934665603
    for byte in data:
        h ^= byte
        h = (h * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


FLIGHT_OUTCOMES = ("ok", "failed", "shed")
FLIGHT_TIERS = ("exact", "fast")
FLIGHT_KEEP_REASONS = ("failed", "shed", "slo_violated", "deadline_missed",
                       "retried", "slow", "sampled")


def check_flight_dump(path):
    """Verify a flight-recorder postmortem: checksum + record structure."""
    with open(path, "rb") as f:
        raw = f.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValidationError(path, "flight dump has no header line")
    header = json.loads(raw[:newline])
    for key in ("schema", "checksum", "payload_bytes"):
        if key not in header:
            raise ValidationError(path, "header missing %r" % key)
    if header["schema"] != "trident-flight-v1":
        raise ValidationError(
            path, "unknown schema %r" % header["schema"])
    payload = raw[newline + 1:newline + 1 + header["payload_bytes"]]
    if len(payload) != header["payload_bytes"]:
        raise ValidationError(
            path, "payload shorter than advertised (%d < %d bytes)"
            % (len(payload), header["payload_bytes"]))
    if fnv1a64(payload) != int(header["checksum"], 16):
        raise ValidationError(path, "checksum mismatch (corrupted dump)")
    doc = json.loads(payload)
    for key in ("flight_recorder_version", "reason", "deterministic",
                "observed", "kept", "evicted", "records"):
        if key not in doc:
            raise ValidationError(path, "payload missing %r" % key)
    if doc["flight_recorder_version"] != 1:
        raise ValidationError(
            path, "unknown flight_recorder_version %r"
            % doc["flight_recorder_version"])
    if len(doc["records"]) > doc["kept"]:
        raise ValidationError(
            path, "%d records but only %d kept" % (len(doc["records"]),
                                                   doc["kept"]))
    for i, rec in enumerate(doc["records"]):
        rpath = "%s:records[%d]" % (path, i)
        for key in ("trace", "id", "outcome", "keep", "tier", "attempts",
                    "replica", "incarnation", "attempt_log"):
            if key not in rec:
                raise ValidationError(rpath, "missing %r" % key)
        if rec["outcome"] not in FLIGHT_OUTCOMES:
            raise ValidationError(rpath, "bad outcome %r" % rec["outcome"])
        if rec["keep"] not in FLIGHT_KEEP_REASONS:
            raise ValidationError(rpath, "bad keep reason %r" % rec["keep"])
        if rec["tier"] not in FLIGHT_TIERS:
            raise ValidationError(rpath, "bad tier %r" % rec["tier"])
        if rec["trace"] != rec["id"] + 1:
            raise ValidationError(
                rpath, "trace id %d != request id %d + 1"
                % (rec["trace"], rec["id"]))
        if doc["deterministic"] and "timing" in rec:
            raise ValidationError(
                rpath, "deterministic dump must omit timings")
        for j, note in enumerate(rec["attempt_log"]):
            for key in ("replica", "incarnation", "error"):
                if key not in note:
                    raise ValidationError(
                        rpath, "attempt_log[%d] missing %r" % (j, key))
    if doc["deterministic"]:
        traces = [rec["trace"] for rec in doc["records"]]
        if traces != sorted(traces):
            raise ValidationError(
                path, "deterministic dump records not ordered by trace id")
    return doc


def _check_request_books(counters, prefix, path):
    """Admission-book inequalities for one submitted/accepted/shed/
    completed/failed counter family.

    Snapshots may be taken mid-run (a submit can be counted before its
    accept/shed lands, and accepted requests may still be in flight), so
    the at-rest equalities relax to one-sided bounds here; the exact
    fleet-wide equalities are enforced post-drain by the C++ invariant
    sweep (chaos::check_fleet_soak).
    """
    names = {
        field: "%s_requests_%s_total" % (prefix, field)
        for field in ("submitted", "accepted", "shed", "completed", "failed")
    }
    if not any(name in counters for name in names.values()):
        return
    submitted, accepted, shed, completed, failed = (
        counters.get(name, 0) for name in names.values())
    if accepted + shed > submitted:
        raise ValidationError(
            "%s:counters" % path,
            "%s books: %d accepted + %d shed > %d submitted"
            % (prefix, accepted, shed, submitted))
    if completed + failed > accepted:
        raise ValidationError(
            "%s:counters" % path,
            "%s books: %d completed + %d failed > %d accepted"
            % (prefix, completed, failed, accepted))


def check_snapshot_invariants(doc, path):
    """Cross-field checks the schema grammar cannot express."""
    counters = doc.get("counters", {})
    gauges = doc.get("gauges", {})
    # Fleet front-door and per-tenant admission books.  Tenant families are
    # discovered by name: trident_tenant_<name>_requests_submitted_total.
    _check_request_books(counters, "trident_serving", path)
    _check_request_books(counters, "trident_fleet", path)
    suffix = "_requests_submitted_total"
    for name in counters:
        if name.startswith("trident_tenant_") and name.endswith(suffix):
            _check_request_books(counters, name[:-len(suffix)], path)
    if "trident_fleet_nodes" in gauges:
        nodes = gauges["trident_fleet_nodes"]
        if nodes is None or nodes < 0:
            raise ValidationError(
                "%s:gauges" % path,
                "trident_fleet_nodes must be >= 0, got %r" % nodes)
    if "trident_health_state" in gauges:
        state = gauges["trident_health_state"]
        if state not in (0, 1, 2):
            raise ValidationError(
                "%s:gauges" % path,
                "trident_health_state must be 0/1/2, got %r" % state)
        for name, value in gauges.items():
            if name.startswith("trident_health_") and \
                    name.endswith(("_short", "_long")) and value < 0:
                raise ValidationError(
                    "%s:gauges" % path, "%s must be >= 0, got %r"
                    % (name, value))
    tier_keys = ("trident_quantized_dispatch_total",
                 "trident_exact_dispatch_total",
                 "trident_serving_requests_completed_total")
    if all(k in counters for k in tier_keys):
        # Every completed response was dispatched on exactly one tier (a
        # fast request degraded to exact counts as an exact dispatch), so
        # any snapshot from a process that ran serving must balance.
        quantized, exact, completed = (counters[k] for k in tier_keys)
        if quantized + exact != completed:
            raise ValidationError(
                "%s:counters" % path,
                "tier dispatches must partition completions: "
                "%d quantized + %d exact != %d completed"
                % (quantized, exact, completed))
    arm_keys = ("trident_canary_dispatch_total",
                "trident_incumbent_dispatch_total",
                "trident_serving_requests_completed_total")
    if all(k in counters for k in arm_keys):
        # Every completed response was served on exactly one weights arm
        # (the canary partition is orthogonal to the tier partition).
        canary, incumbent, completed = (counters[k] for k in arm_keys)
        if canary + incumbent != completed:
            raise ValidationError(
                "%s:counters" % path,
                "canary arms must partition completions: "
                "%d canary + %d incumbent != %d completed"
                % (canary, incumbent, completed))
    canary_keys = ("trident_serving_canary_starts_total",
                   "trident_serving_canary_promotes_total",
                   "trident_serving_canary_rollbacks_total")
    if all(k in counters for k in canary_keys):
        starts, promotes, rollbacks = (counters[k] for k in canary_keys)
        live = gauges.get("trident_serving_canary_version")
        active = 1 if live else 0
        if promotes + rollbacks + active != starts:
            raise ValidationError(
                "%s:counters" % path,
                "canary lifecycle books: %d promotes + %d rollbacks + "
                "%d active != %d starts"
                % (promotes, rollbacks, active, starts))
    for name, hist in doc.get("histograms", {}).items():
        hpath = "%s:histograms.%s" % (path, name)
        buckets = hist["buckets"]
        if buckets[-1]["le"] is not None:
            raise ValidationError(hpath, "last bucket must be +Inf (le: null)")
        bucket_total = sum(b["count"] for b in buckets)
        if bucket_total != hist["count"]:
            raise ValidationError(
                hpath, "bucket counts sum to %d but count is %d"
                % (bucket_total, hist["count"]))
        finite = [b["le"] for b in buckets if b["le"] is not None]
        if finite != sorted(finite) or len(set(finite)) != len(finite):
            raise ValidationError(
                hpath, "bucket bounds are not strictly ascending: %r" % finite)
        if hist["count"] == 0:
            # RunningStats reports NaN extremes when empty -> JSON null,
            # and the bucket-estimated percentiles are NaN -> null too.
            for key in ("min", "max", "p50", "p90", "p99"):
                if hist[key] is not None:
                    raise ValidationError(
                        hpath, "empty histogram must have %s: null" % key)
        else:
            quantiles = [hist["p50"], hist["p90"], hist["p99"]]
            if any(q is None for q in quantiles):
                raise ValidationError(
                    hpath, "non-empty histogram must have numeric percentiles")
            if not quantiles[0] <= quantiles[1] <= quantiles[2]:
                raise ValidationError(
                    hpath, "percentiles must be monotone: %r" % quantiles)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("metrics", nargs="+", help="snapshot file(s) to check")
    parser.add_argument(
        "--schema",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "metrics_schema.json"))
    parser.add_argument(
        "--flight", action="store_true",
        help="treat inputs as flight-recorder dumps, not metric snapshots")
    args = parser.parse_args(argv)

    status = 0
    if args.flight:
        for dump_path in args.metrics:
            try:
                doc = check_flight_dump(dump_path)
            except (OSError, json.JSONDecodeError, ValueError,
                    ValidationError) as err:
                print("%s: FAIL: %s" % (dump_path, err), file=sys.stderr)
                status = 1
                continue
            print("%s: OK (reason %s, %d records kept of %d observed)" % (
                dump_path, doc["reason"], len(doc["records"]),
                doc["observed"]))
        return status

    with open(args.schema, "r", encoding="utf-8") as f:
        schema = json.load(f)

    for metrics_path in args.metrics:
        try:
            with open(metrics_path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            validate(doc, schema)
            check_snapshot_invariants(doc, metrics_path)
        except (OSError, json.JSONDecodeError, ValidationError) as err:
            print("%s: FAIL: %s" % (metrics_path, err), file=sys.stderr)
            status = 1
            continue
        print("%s: OK (%d counters, %d gauges, %d histograms)" % (
            metrics_path, len(doc["counters"]), len(doc["gauges"]),
            len(doc["histograms"])))
    return status


if __name__ == "__main__":
    sys.exit(main())
