"""Alternating before/after runs of the benchmark, summarized as one JSON file.

    python3 scripts/bench_pairs.py --base HEAD~1 --change HEAD \
        --pairs 5 --seconds 10 --out BENCH_<n>.json

Each side is a clean copy of a git revision, extracted with ``git archive``
into a temporary directory (``--change`` defaults to the working tree's
tracked and untracked, non-ignored files). The change's ``bench/`` is
copied over the base's, so both sides run the same harness on their own
``src/``. For every pair and every workload of ``BENCHMARK.json`` the two
sides run its command back to back, base first in even pairs and change
first in odd ones, and the last stdout line of each run is parsed as its
JSON result.

The output holds, per workload and end-to-end metric, both sides' medians
and interquartile ranges, the per-pair values, the number of pairs the
change won and a verdict against the metric's bound (``gain``,
``regression``, ``unresolved`` or ``within bound``, see ``verdict``), plus
failed ops, the run settings and host provenance. Each side is named by
its short commit hash (a working tree that differs from its HEAD as
``<hash>+dirty``) and by ``src_sha256``, the ``tree_digest``
of the ``src/`` it ran, which can be recomputed on any later checkout.

If a run exits nonzero, the pairs completed so far are still summarized
and written, with a ``failed_run`` entry (workload, side, pair, exit code
and the tail of its stderr), and the script exits 1. A run that exits 0
but whose last line is no JSON result fails the same way, its entry
holding the parse ``error`` in place of the exit code and stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def extract(rev: str | None, dest: Path) -> str:
    """Write revision ``rev`` (None: the working tree) to ``dest``; return its label.

    The label is the short commit hash; the working tree is labeled by its
    HEAD, with ``+dirty`` when ``git status`` shows any change.
    """
    dest.mkdir(parents=True)
    if rev is None:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in listed.decode().split("\0"):
            if name and (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        head = git("rev-parse", "--short", "HEAD").decode().strip()
        return head + "+dirty" if git("status", "--porcelain") else head
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    return git("rev-parse", "--short", rev).decode().strip()


def tree_digest(src: Path) -> str:
    """sha256 over the sorted relative paths and bytes of the files under ``src``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        name = path.relative_to(src).as_posix().encode()
        data = path.read_bytes()
        digest.update(b"%d:%s%d:" % (len(name), name, len(data)))
        digest.update(data)
    return digest.hexdigest()


def last_json(stdout: str) -> dict:
    """The JSON object on the last nonblank line of a ``bench/run.py`` run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark run printed nothing")
    return json.loads(lines[-1])


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    done.check_returncode()
    return last_json(done.stdout)


def _spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of the values."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def verdict(row: dict, bound: float, more_failed: bool) -> str:
    """One metric's reading of its pairs, ``bound`` its allowed relative worsening.

    ``more_failed`` tells whether the change failed a larger share of its
    attempted ops than the base.
    ``gain``: the change failed no larger share of ops, won at least nine
    tenths of the pairs, and its median beats the base median by more than
    the base IQR.
    ``regression``: the change median is worse than the base median by more
    than ``bound`` of it. ``unresolved``: the base IQR is wider than that
    bound and not every change run beats every base run. ``within bound``:
    anything else.
    """
    sign = 1.0 if row["better"] == "lower" else -1.0
    base, change = (sign * row[f"{side}_median"] for side in SIDES)
    won = 10 * row["change_wins"] >= 9 * len(row["pairs"])
    if not more_failed and won and base - change > row["base_iqr"]:
        return "gain"
    if change - base > bound * abs(row["base_median"]):
        return "regression"
    worst_change = max(sign * c for _, c in row["pairs"])
    best_base = min(sign * b for b, _ in row["pairs"])
    if row["base_iqr"] > bound * abs(row["base_median"]) and not worst_change < best_base:
        return "unresolved"
    return "within bound"


def summarize(spec: list[dict], pairs: list[dict[str, dict]]) -> dict:
    """Per-metric summary of one workload's pairs of run results.

    ``spec`` is ``BENCHMARK.json``'s ``end_to_end`` list; each pair maps
    ``"base"`` and ``"change"`` to a parsed run result. The change wins a
    pair when its value is strictly better in the metric's direction; each
    metric's ``verdict`` reads its pairs against the metric's bound and
    the two sides' shares of failed ops.
    """
    out = {
        side: {
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs),
        }
        for side in SIDES
    }
    base, change = out["base"], out["change"]
    more_failed = change["failed"] * base["attempted"] > base["failed"] * change["attempted"]
    metrics = {}
    for entry in spec:
        name, sign = entry["name"], 1.0 if entry["better"] == "lower" else -1.0
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        row = {"unit": entry["unit"], "better": entry["better"]}
        for side in SIDES:
            row[f"{side}_median"], row[f"{side}_iqr"] = _spread(values[side])
        row["change_wins"] = sum(
            sign * c < sign * b for b, c in zip(values["base"], values["change"])
        )
        row["pairs"] = [list(bc) for bc in zip(values["base"], values["change"])]
        row["verdict"] = verdict(row, entry["bound"], more_failed)
        metrics[name] = row
    out["metrics"] = metrics
    return out


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--change", default=None, help="git revision (default: working tree)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", default=None, help="parent of the temporary trees")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    started = host()
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        labels = {
            "base": extract(args.base, trees["base"]),
            "change": extract(args.change, trees["change"]),
        }
        digests = {side: tree_digest(trees[side] / "src") for side in SIDES}
        shutil.rmtree(trees["base"] / "bench", ignore_errors=True)
        shutil.copytree(trees["change"] / "bench", trees["base"] / "bench")
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        failed_run = None
        try:
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for workload in workloads:
                    pair = {}
                    for side in order:
                        pair[side] = run_once(
                            trees[side], spec["command"], workload, args.seed, args.seconds
                        )
                    runs[workload].append(pair)
                    print(f"pair {i + 1}/{args.pairs} {workload}: " + ", ".join(
                        f"{side} op_p50_s {pair[side]['metrics']['op_p50_s']['value']:.4g}"
                        for side in SIDES
                    ), file=sys.stderr)
        except (subprocess.CalledProcessError, ValueError) as err:
            failed_run = {"workload": workload, "side": side, "pair": i + 1}
            if isinstance(err, subprocess.CalledProcessError):
                failed_run["exit"] = err.returncode
                failed_run["stderr_tail"] = err.stderr.splitlines()[-20:]
            else:  # it exited 0 without a JSON result on its last line
                failed_run["error"] = str(err)
            print(f"pair {i + 1} {workload}: {side} failed: {err}", file=sys.stderr)
    result = {
        "base": labels["base"],
        "change": labels["change"],
        "src_sha256": digests,
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {"at_start": started, "at_end": host()},
        "workloads": {w: summarize(spec["end_to_end"], runs[w]) for w in workloads if runs[w]},
    }
    if failed_run:
        result["failed_run"] = failed_run
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 1 if failed_run else 0


if __name__ == "__main__":
    sys.exit(main())
