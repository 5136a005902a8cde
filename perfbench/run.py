#!/usr/bin/env python3
"""xcond benchmark: closed-loop passes of CLI ops through the in-process
entry point ``xcond.cli.main``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload rees-families --seed 1 --seconds 15 --trace 0

One op is in flight at a time, all in this process.  Passes over the
workload's ops repeat until ``--seconds`` have elapsed (at least two
untraced passes, and with ``--trace 1`` one traced); every op's output
is then checked against an answer that does not come from xcond.  With
``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics, from passes that alternate
between untraced and traced (the difference of their medians is the
tracing overhead).  The last line of stdout is the JSON result; a
readable table goes to stderr, and the per-op records, output digests
and spans go under ``.perfbench_out/``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import spans
import workloads

OUT_DIR = Path(".perfbench_out")
SETUP_SAMPLES = 7
CAL_EVERY = 0.1  # seconds between calibration samples
MIN_PASSES = 2  # untraced passes, even when one pass outlasts --seconds
READY = (
    "import sys, xcond.cli\n"
    "xcond.cli.build_parser()\n"
    "sys.stdout.write(xcond.cli.__file__ + '\\n')\n"
    "sys.stdout.flush()\n"
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def load_xcond(root):
    """Import xcond from the checkout's own src/, never from elsewhere."""
    src = root / "src"
    if not (src / "xcond" / "cli.py").is_file():
        raise SystemExit(f"error: {src / 'xcond'} not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import xcond.cli

    if Path(xcond.cli.__file__).resolve().parent != (src / "xcond").resolve():
        raise SystemExit(f"error: imported xcond from {xcond.cli.__file__}, not from {src}")
    return xcond.cli


def measure_setup(root):
    """Median seconds from spawning a fresh interpreter until it has
    imported xcond.cli and built the parser.  A first spawn, not counted,
    leaves the bytecode cache as a user's second run finds it."""
    src = root / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", READY], stdout=subprocess.PIPE, env=env, cwd=root, text=True
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or Path(line.strip()).resolve().parent != (src / "xcond").resolve():
            raise SystemExit(f"error: set-up child failed (exit {proc.returncode}): {line!r}")
        samples.append(t1 - t0)
    return statistics.median(samples[1:]), len(samples) - 1


def calibration_loop():
    """Fixed pure-Python work of the kind xcond's inner loops do (Fraction
    arithmetic on dicts keyed by exponent tuples), independent of xcond.
    Its duration tracks how fast this machine runs Python right now."""
    t0 = time.perf_counter()
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    b = {(i, j): Fraction(j - 3, i + 1) for i in range(5) for j in range(5)}
    for _ in range(4):
        prod = {}
        for (i, j), c in a.items():
            for (k, l), d in b.items():
                key = (i + k, j + l)
                prod[key] = prod.get(key, 0) + c * d
    return time.perf_counter() - t0


@dataclass
class Pass:
    wall: float  # seconds, calibration excluded
    records: list  # per op: (seconds, stdout, stderr, exception, calibration seconds)
    tracer: "spans.Tracer | None" = None


def run_pass(cli, ops, tracer=None):
    """One closed-loop pass.  Before an op, if CAL_EVERY seconds have passed
    since the last calibration sample, a new one is taken, and one more at
    the end.  Each op is recorded with the mean of the samples taken from
    one op-length (at least CAL_EVERY) before it starts until one op-length
    after it ends, and always the two samples around it, so its time can be
    put in units of the calibration loop as fast as the machine ran then."""
    raw, samples = [], []  # samples: (perf_counter at its end, seconds)

    def sample():
        dt = calibration_loop()
        samples.append((time.perf_counter(), dt))

    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if not samples or time.perf_counter() - samples[-1][0] >= CAL_EVERY:
                sample()
            if tracer is not None:
                tracer.op = i
            out, err = io.StringIO(), io.StringIO()
            exc = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    cli.main(list(op.argv))
            except (Exception, SystemExit) as e:  # an op that crashes is a failed op
                exc = f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            raw.append((t1 - t0, out.getvalue(), err.getvalue(), exc, t0, t1, len(samples)))
        sample()
    finally:
        if tracer is not None:
            tracer.uninstall()
    records = []
    for dt, out, err, exc, t0, t1, after in raw:
        reach = max(dt, CAL_EVERY)
        near = {after - 1, after} | {
            k for k, (t, _) in enumerate(samples) if t0 - reach <= t <= t1 + reach
        }
        records.append((dt, out, err, exc, statistics.mean(samples[k][1] for k in near)))
    return Pass(sum(rec[0] for rec in records), records, tracer)


def classify(op, record, verdicts):
    """None for a good op, else the reason it failed.  Decided by the
    exception, stderr and the presence of JSON, never by the exit code."""
    _, stdout, stderr, exc, _ = record
    if exc is not None:
        return f"exception: {exc}"
    if not stdout.strip():
        first = stderr.strip().splitlines()[0] if stderr.strip() else "no output"
        return ("cap hit: " if first.startswith("cap exceeded") else "no JSON: ") + first
    key = (op.label, hashlib.sha256(stdout.encode()).hexdigest())
    if key not in verdicts:
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            verdicts[key] = "non-JSON stdout"
        else:
            wrong = op.check(payload) if isinstance(payload, dict) else "not a JSON object"
            verdicts[key] = None if wrong is None else f"wrong answer: {wrong}"
    return verdicts[key]


def code_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "xcond").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_digests(root, ops, passes):
    """Every op must print the same bytes in every pass of this run and in
    every earlier run of the same code; returns the mismatches and the
    per-op digests."""
    errors, digests = [], {}
    for i, op in enumerate(ops):
        seen = {hashlib.sha256(p.records[i][1].encode()).hexdigest() for p in passes}
        if len(seen) > 1:
            errors.append(f"{op.label}: output differs between passes")
        digests[op.key()] = min(seen)
    store_path = OUT_DIR / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    known = store.setdefault(code_digest(root), {})
    for key, digest in digests.items():
        if known.setdefault(key, digest) != digest:
            errors.append(f"{key}: output differs from an earlier run of the same code")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True))
    os.replace(tmp, store_path)
    return errors, digests


def metric_specs(root, section):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def main():
    args = parse_args()
    root = Path.cwd()
    cli = load_xcond(root)
    OUT_DIR.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, OUT_DIR / "inputs" / args.workload)
    t1 = time.perf_counter()
    setup_s, setup_n = measure_setup(root)
    phases = {"inputs_s": t1 - t0, "setup_samples_s": time.perf_counter() - t1}

    plain, traced = [], []
    start = time.perf_counter()
    while (
        len(plain) < MIN_PASSES
        or (args.trace and not traced)
        or time.perf_counter() - start < args.seconds
    ):
        if args.trace and len(traced) < len(plain):
            traced.append(run_pass(cli, ops, spans.Tracer()))
        else:
            plain.append(run_pass(cli, ops))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases["passes_s"] = time.perf_counter() - start

    # correctness, outside the timed region
    t0 = time.perf_counter()
    verdicts, failures = {}, {}  # (op label, stdout digest) -> verdict; op label -> first reason

    def failed_in(p):
        count = 0
        for op, record in zip(ops, p.records):
            reason = classify(op, record, verdicts)
            if reason is not None:
                failures.setdefault(op.label, reason)
                count += 1
        return count

    passes = plain + traced
    traced_failed = sum(failed_in(p) for p in traced)
    failed = sum(failed_in(p) for p in plain) + traced_failed
    attempted = len(ops) * len(passes)
    errors, digests = check_digests(root, ops, passes)
    errors += [f"{k}: {v}" for k, v in failures.items() if v.startswith("wrong answer")]
    for p in traced:
        errors += spans.kernel_checks(p.tracer.spans, ops)
    errors = list(dict.fromkeys(errors))
    phases["checks_s"] = time.perf_counter() - t0

    # An op is known by its label; a workload may repeat one within a pass.
    # The slowest op is the one with the largest median time over the
    # untraced passes; taking each pass's maximum instead would pick
    # whichever op happened to catch a slow moment.
    where = {}
    for i, op in enumerate(ops):
        where.setdefault(op.label, []).append(i)
    op_median = {
        label: statistics.median(p.records[i][0] for p in plain for i in idx)
        for label, idx in where.items()
    }
    slowest = max(op_median, key=op_median.get)

    def summary(unit):
        """Pass wall, median op and slowest op of the untraced passes, with
        each op's time divided by unit(record).  The median op is taken
        over each op's median across passes, so it does not jump between
        neighbouring ops with the number of passes."""
        times = [[rec[0] / unit(rec) for rec in p.records] for p in plain]
        return (
            statistics.median(sum(t) for t in times),
            statistics.median(
                statistics.median(t[i] for t in times for i in idx) for idx in where.values()
            ),
            statistics.median(t[i] for t in times for i in where[slowest]),
        )

    wall_s, op_p50_s, max_op_s = summary(lambda rec: 1.0)
    wall_cal, op_p50_cal, max_op_cal = summary(lambda rec: rec[4])
    cal_s = statistics.median(rec[4] for p in plain for rec in p.records)
    e2e = {
        "setup_s": setup_s,
        "wall_cal": wall_cal,
        "op_p50_cal": op_p50_cal,
        "max_op_cal": max_op_cal,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "wall_s": wall_s,
        "op_p50_s": op_p50_s,
        "max_op_s": max_op_s,
        "fail_ratio": failed / attempted,
    }
    layers = {}
    if traced:
        per_pass = [spans.layer_metrics(p.tracer.spans) for p in traced]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["cli.failed_ops"] = traced_failed / len(traced)
        # traced minus untraced pass, compared in cal units so that the
        # machine's drift between the two does not swamp it
        traced_cal = statistics.median(sum(r[0] / r[4] for r in p.records) for p in traced)
        layers["trace.overhead_s"] = (traced_cal - wall_cal) * cal_s

    section = "per_layer" if args.trace else "end_to_end"
    values = layers if args.trace else e2e
    specs = metric_specs(root, section)
    if sorted(values) != sorted(n for n, _ in specs):
        raise SystemExit(
            f"error: computed metrics {sorted(values)} do not match BENCHMARK.json {section}"
        )
    metrics = {n: {"value": values[n], "unit": u} for n, u in specs}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_walls_s": [p.wall for p in plain],
        "traced_pass_walls_s": [p.wall for p in traced],
        "calibration_s": cal_s,
        "op_samples": len(ops) * len(plain),
        "setup_samples": setup_n,
        "phases": phases,
        "end_to_end": e2e,
        "raw": raw,
        "per_layer": layers,
        "errors": errors,
        "failures": failures,
        "slowest_op": slowest,
        "ops": [
            {
                "label": label,
                "key": ops[idx[0]].key(),
                "sha256": digests[ops[idx[0]].key()],
                "median_s": op_median[label],
            }
            for label, idx in where.items()
        ],
    }
    if traced:
        report["slowest_op_layers"] = spans.op_breakdown(traced[-1].tracer.spans, where[slowest][0])
        (OUT_DIR / f"spans-{args.workload}.json").write_text(
            json.dumps([p.tracer.spans for p in traced], separators=(",", ":"))
        )
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True)
    )

    log = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}"
          f"{f' + {len(traced)} traced' if traced else ''}  ops/pass {len(ops)}", file=log)
    units = dict(metric_specs(root, "end_to_end"), wall_s="s", op_p50_s="s", max_op_s="s")
    for name, value in {**e2e, **raw}.items():
        print(f"  {name:<34} {value:12.6f} {units.get(name, '')}", file=log)
    print(f"  failed/attempted {failed}/{attempted}, op samples {report['op_samples']},"
          f" set-up samples {setup_n}, slowest op {slowest}", file=log)
    print("  phases " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()), file=log)
    for name, value in sorted(layers.items()):
        print(f"  {name:<34} {value:12.6f}", file=log)
    if traced:
        for name, secs in sorted(report["slowest_op_layers"].items(), key=lambda kv: -kv[1]):
            print(f"    slowest op  {name:<36} {secs:10.4f} s", file=log)
    for label, reason in report["failures"].items():
        print(f"  FAILED {label}: {reason}", file=log)
    for e in errors:
        print(f"  ERROR {e}", file=log)

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
