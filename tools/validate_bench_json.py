#!/usr/bin/env python3
"""Schema validator and baseline comparator for bench_runner output
(bench/bench_runner.h).

Validate mode fails (exit 1) on missing keys, wrong types, empty row sets,
or any non-finite number anywhere in the document — the properties CI's
bench-smoke job guards. Absolute perf numbers are machine-local and are
deliberately NOT checked.

Compare mode diffs two documents' throughput rows (fig08/fig09/fig13
events_per_sec, loopback req_per_sec, remote_prefetch reads_per_sec) and
emits a GitHub `::warning::` annotation for every row regressing by more
than 10%. Regressions are
advisory — CI runners are noisy — so compare mode always exits 0 unless a
file is unreadable. Documents run at different `bench_scale`s measure
different workloads, so compare mode prints a note and skips them.

Usage: validate_bench_json.py BENCH.json
       validate_bench_json.py --compare NEW.json BASELINE.json
"""
import json
import math
import sys

REGRESSION_THRESHOLD = 0.10  # fractional throughput drop that draws a warning

FIG_KEYS = {
    "query": str,
    "backend": str,
    "window_s": (int, float),
    "ok": bool,
    "fail_reason": str,
    "events": (int, float),
    "events_per_sec": (int, float),
}
FIG_LATENCY_KEYS = {
    "p50_ms": (int, float),
    "p95_ms": (int, float),
    "p99_ms": (int, float),
    "bytes_per_op": (int, float),
}
CPU_KEYS = {
    "write_s": (int, float),
    "read_s": (int, float),
    "compaction_s": (int, float),
    "total_s": (int, float),
}
REMOTE_PREFETCH_KEYS = {
    "prefetch": bool,
    "ok": bool,
    "fail_reason": str,
    "windows": (int, float),
    "reads": (int, float),
    "reads_per_sec": (int, float),
    "read_p50_ms": (int, float),
    "read_p99_ms": (int, float),
    "cache_hits": (int, float),
    "cache_misses": (int, float),
    "pushes": (int, float),
}
LOOPBACK_KEYS = {
    "clients": (int, float),
    "ok": bool,
    "fail_reason": str,
    "requests": (int, float),
    "ops": (int, float),
    "req_per_sec": (int, float),
    "ops_per_sec": (int, float),
    "p50_ms": (int, float),
    "p99_ms": (int, float),
    "bytes_in_per_op": (int, float),
    "bytes_out_per_op": (int, float),
}


def fail(msg):
    print(f"validate_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_keys(obj, keys, where):
    for key, typ in keys.items():
        if key not in obj:
            fail(f"{where}: missing key {key!r}")
        if not isinstance(obj[key], typ):
            fail(f"{where}: key {key!r} has type {type(obj[key]).__name__}")


def check_finite(value, path):
    if isinstance(value, bool):
        return
    if isinstance(value, float) and not math.isfinite(value):
        fail(f"non-finite number at {path}")
    if isinstance(value, dict):
        for k, v in value.items():
            check_finite(v, f"{path}.{k}")
    if isinstance(value, list):
        for i, v in enumerate(value):
            check_finite(v, f"{path}[{i}]")


def row_key(bench, row):
    """Identity of a row within its bench, for matching across documents."""
    if bench == "fig08":
        return (row.get("query"), row.get("backend"), row.get("window_s"))
    if bench == "fig09":
        return (row.get("query"), row.get("backend"), row.get("window_s"),
                row.get("rate"))
    if bench == "fig13":
        return (row.get("query"), row.get("backend"), row.get("workers"))
    if bench == "remote_prefetch":
        return (row.get("prefetch"),)
    # loopback: keyed by client count, the one parameter its rows vary.
    return (row.get("clients"),)


def compare(new_path, base_path):
    with open(new_path) as f:
        new_doc = json.load(f)
    with open(base_path) as f:
        base_doc = json.load(f)
    if new_doc.get("bench_scale") != base_doc.get("bench_scale"):
        print(f"validate_bench_json: not comparing {new_path} "
              f"(bench_scale {new_doc.get('bench_scale')!r}) with {base_path} "
              f"(bench_scale {base_doc.get('bench_scale')!r})")
        return 0

    metric_by_bench = {
        "fig08": "events_per_sec",
        "fig09": "events_per_sec",
        "fig13": "events_per_sec",
        "loopback": "req_per_sec",
        "remote_prefetch": "reads_per_sec",
    }
    compared = 0
    regressed = 0
    for bench, metric in metric_by_bench.items():
        base_rows = {}
        for row in base_doc.get("benches", {}).get(bench, []):
            base_rows[row_key(bench, row)] = row
        for row in new_doc.get("benches", {}).get(bench, []):
            base = base_rows.get(row_key(bench, row))
            if base is None:
                continue  # new configuration point; nothing to compare against
            if not (row.get("ok") and base.get("ok")):
                continue
            old_v = base.get(metric)
            new_v = row.get(metric)
            if not isinstance(old_v, (int, float)) or old_v <= 0:
                continue
            if not isinstance(new_v, (int, float)):
                continue
            compared += 1
            delta = new_v / old_v - 1
            label = f"{bench}{list(row_key(bench, row))}"
            if -delta > REGRESSION_THRESHOLD:
                regressed += 1
                print(f"::warning title=bench regression::{label} {metric} "
                      f"{old_v:.1f} -> {new_v:.1f} ({delta:+.1%} vs "
                      f"{base_path})")
            else:
                print(f"validate_bench_json: {label} {metric} "
                      f"{old_v:.1f} -> {new_v:.1f} ({delta:+.1%})")
    print(f"validate_bench_json: compared {compared} rows, "
          f"{regressed} regressed >{REGRESSION_THRESHOLD:.0%}")
    return 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        return compare(sys.argv[2], sys.argv[3])
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:
            fail(f"{path}: not valid JSON: {e}")

    if doc.get("schema_version") != 1:
        fail(f"schema_version is {doc.get('schema_version')!r}, expected 1")
    if doc.get("bench_scale") not in ("quick", "full"):
        fail(f"bench_scale is {doc.get('bench_scale')!r}")
    benches = doc.get("benches")
    if not isinstance(benches, dict):
        fail("benches is not an object")

    for name in ("fig08", "fig09", "fig13", "loopback"):
        rows = benches.get(name)
        if not isinstance(rows, list) or not rows:
            fail(f"benches.{name} missing or empty")

    for name in ("fig08", "fig09"):
        for i, row in enumerate(benches[name]):
            where = f"{name}[{i}]"
            check_keys(row, FIG_KEYS, where)
            check_keys(row, FIG_LATENCY_KEYS, where)
            check_keys(row.get("cpu", {}), CPU_KEYS, f"{where}.cpu")
            if name == "fig09" and "rate" not in row:
                fail(f"{where}: missing key 'rate'")
    for i, row in enumerate(benches["fig13"]):
        where = f"fig13[{i}]"
        check_keys(row, FIG_KEYS, where)
        if "workers" not in row or "cpu_events_per_sec" not in row:
            fail(f"{where}: missing workers/cpu_events_per_sec")
    for i, row in enumerate(benches["loopback"]):
        check_keys(row, LOOPBACK_KEYS, f"loopback[{i}]")
    # Optional bench (added after BENCH_PR7.json): validated when present so
    # older committed baselines keep passing.
    remote_prefetch = benches.get("remote_prefetch")
    if remote_prefetch is not None:
        if not isinstance(remote_prefetch, list) or not remote_prefetch:
            fail("benches.remote_prefetch present but empty")
        for i, row in enumerate(remote_prefetch):
            check_keys(row, REMOTE_PREFETCH_KEYS, f"remote_prefetch[{i}]")

    check_finite(doc, "$")
    print(f"validate_bench_json: OK: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
