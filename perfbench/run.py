"""End-to-end benchmark of the xdvae pipeline on seeded synthetic corpora.

Run from the repository root:

    python3 perfbench/run.py --workload ml1m-train --seed 1 --seconds 30 --trace 0

The program under test is the ``xdvae`` package in ``src/``; the benchmark
hands it only generated files and CLI argv. Set-up generates the corpus
``SETUP_REPEATS`` times, and every pass process imports the package; ``setup_s``
is the median generation plus the median import. The measured stages run in
passes, each in a fresh child process (``measure.py``), until ``--seconds``
have been spent in them, at least ``MIN_PASSES`` passes. Each ``*_s`` stage
metric is the median wall of every run of that stage in the passes, and
``peak_rss_mb`` the largest peak RSS of a pass process. Every time is
corrected for host speed: scaled by ``REF_S`` over the median wall of a fixed
reference computation timed between stages all through the run (see
``pipeline._Reference``). With ``--trace 1`` the run reports the
per-layer table instead, from one traced pass process.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``. The lines above it print every metric with its unit,
``error_rate``, the artifact digests and the run's provenance. The full
record is also written to ``.perfbench_out/``. Exit code 2 means the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench_work"
OUT_ROOT = ".perfbench_out"
DEADLINE_S = 170   # a run must end within 180 s
SETUP_REPEATS = 3
MIN_PASSES = 2


def _die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _blas():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def _git_sha(root):
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _source_sha256(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "xdvae")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(root, src, workload, seed):
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "cpu": platform.processor() or platform.machine(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": _source_sha256(src),
    }


def raw_walls(records):
    """Median uncorrected wall of each stage, for the record."""
    stages = dict.fromkeys(r.stage for r in records)
    return {s: _median([r.wall_s for r in records if r.stage == s]) for s in stages}


def end_to_end(records, setup_s, peak_rss_mb, workload, ref_s):
    from pipeline import corrected

    def samples(stage):
        return [r for r in records if r.stage == stage]

    def wall(stage):
        return corrected(_median([r.wall_s for r in samples(stage)]), ref_s)

    def fact(stage, key):
        hits = [r.facts[key] for r in samples(stage) if key in r.facts]
        return hits[0] if hits else 0.0

    prepare = [s for s in workload.loop if s.startswith("prepare")][0]
    epoch = corrected(_median([w for r in samples("train")
                               for w in r.facts.get("epoch_walls", [])]), ref_s)
    return {
        "setup_s": setup_s,
        "prepare_s": wall(prepare),
        "train_s": wall("train"),
        "train_users_per_s": fact("train", "rows") / epoch if epoch else 0.0,
        "train_loss": fact("train", "final_loss"),
        "eval_standard_s": wall("eval:standard"),
        "eval_degrade_s": wall("eval:degrade"),
        "eval_coldstart_s": wall("eval:coldstart"),
        "peak_rss_mb": peak_rss_mb,
        "hr10_standard": fact("eval:standard", "hr10"),
        "hr10_coldstart": fact("eval:coldstart", "hr10"),
    }


def _corpus_digests(workdir, corpora):
    from pipeline import sha256

    return {f"corpus.{os.path.basename(path)}": sha256(os.path.join(workdir, path))
            for c in corpora.values() for path in (c.ratings, c.items)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and waits for its pass process, and
    # removes its work directory, on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one BLAS thread: every timed computation, the reference included, then
    # runs on one core, and the other core is left to the rest of the system
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "xdvae", "cli.py")):
        _die(f"no xdvae package under {src}; run from the repository root")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        _die(f"cannot read BENCHMARK.json: {e}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import xdvae
    from pipeline import (REF_S, WORKLOADS, StageRecord, check_digests, corrected,
                          generate, reference_s)

    if os.path.dirname(os.path.abspath(xdvae.__file__)) != os.path.join(src, "xdvae"):
        _die(f"imported xdvae from {xdvae.__file__}, not from {src}")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    tag = f"{workload.name}-s{args.seed}"
    workdir = os.path.join(root, WORK_ROOT, f"{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(os.path.join(root, OUT_ROOT), exist_ok=True)
    try:
        # -- set-up: the seeded corpus, generated SETUP_REPEATS times over the
        # same files; every generation must write the same bytes
        gen_walls, ref_walls, corpus_digests = [], [reference_s()], None
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            corpora = generate(workload, args.seed, workdir)
            gen_walls.append(time.perf_counter() - t0)
            ref_walls.append(reference_s())
            digests = _corpus_digests(workdir, corpora)
            if corpus_digests not in (None, digests):
                _die(f"seed {args.seed} generated different corpora: "
                     f"{corpus_digests} then {digests}")
            corpus_digests = digests

        # -- measured passes, each in a process of its own
        plan = {
            "workload": workload.name, "trace": args.trace,
            "corpora": {k: dataclasses.asdict(c) for k, c in corpora.items()},
            "spans_path": os.path.join(root, OUT_ROOT, f"{tag}-spans.json"),
        }
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        results, pass_walls, measured = [], [], 0.0
        while not results or (not args.trace and (
                len(results) < MIN_PASSES or measured < args.seconds)):
            left = DEADLINE_S - (time.perf_counter() - started)
            if pass_walls and left < 1.5 * max(pass_walls):
                break   # another pass would risk the deadline
            out_path = os.path.join(workdir, f"pass{len(results)}.json")
            t0 = time.perf_counter()
            try:
                child = subprocess.run(
                    [sys.executable, os.path.join(HERE, "measure.py"), plan_path, out_path],
                    env=env, cwd=root, capture_output=True, text=True,
                    timeout=max(1.0, left),
                )
            except subprocess.TimeoutExpired:
                _die(f"measured process did not finish within {DEADLINE_S} s of the start")
            pass_walls.append(time.perf_counter() - t0)
            if child.returncode != 0:
                _die(f"measured process exited {child.returncode}:\n{child.stderr[-2000:]}")
            with open(out_path, encoding="utf-8") as fh:
                results.append(json.load(fh))
            measured += sum(r["wall_s"] for r in results[-1]["records"])
        records = [StageRecord(**r) for res in results for r in res["records"]]

        # -- checks and metrics
        digests = dict(corpus_digests, **check_digests(records))
        if args.trace:
            values, section = results[0]["layers"], spec["per_layer"]
        else:
            peak_rss_mb = max(res["peak_rss_mb"] for res in results)
            ref_walls += [w for res in results for w in res["ref_walls"]]
            ref_s = _median(ref_walls)
            setup_s = corrected(_median(gen_walls) + _median([res["import_s"] for res in results]),
                                ref_s)
            values = end_to_end(records, setup_s, peak_rss_mb, workload, ref_s)
            section = spec["end_to_end"]
        failed = sum(1 for r in records if not r.ok)
        attempted = len(records)
        missing = [m["name"] for m in section if m["name"] not in values]
        if missing:
            _die(f"metrics not computed: {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

        detail = {
            "provenance": provenance(root, src, workload.name, args.seed),
            "digests": digests,
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "setup": {"generate_s": gen_walls, "import_s": [r["import_s"] for r in results]},
            "reference_walls_s": ref_walls,
            "pass_walls_s": pass_walls,
            "raw_stage_walls_s": raw_walls(records),
            "metrics": values,
            "unpatched": results[0].get("unpatched", []),
            "stages": [dataclasses.asdict(r) for r in records],
        }
        with open(os.path.join(root, OUT_ROOT, f"{tag}-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)

        for r in records:
            for e in r.errors:
                print(f"FAILED {r.stage}: {e}")
        for name, m in metrics.items():
            print(f"{workload.name:18s} {name:34s} {m['value']:>16.6g} {m['unit']}")
        for stage, w in detail["raw_stage_walls_s"].items():
            print(f"{workload.name:18s} raw median wall {stage:18s} {w:>16.6g} s")
        if not args.trace:
            print(f"{workload.name:18s} {'median reference wall':34s} "
                  f"{ref_s:>16.6g} s (scaled to REF_S = {REF_S} s)")
        print(f"{workload.name:18s} {'error_rate':34s} {failed / attempted:>16.6g} "
              f"failed/attempted ({failed}/{attempted})")
        for name, digest in sorted(digests.items()):
            print(f"{workload.name:18s} sha256 {name:27s} {digest}")
        print("provenance " + json.dumps(detail["provenance"], sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_ROOT))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
