#!/usr/bin/env python3
"""End-to-end benchmark of the macexp command line.

Run from the repository root:

    python3 perfbench/run.py --workload exponent_sweep_d6 --seed 1 \\
        --seconds 10 --trace 0

Each workload writes its JSON inputs from ``--seed``, drives
``macexp.cli.main(argv)`` in this process, checks every output against
``perfbench/references.json`` and prints one JSON object as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the calls between modules and reports the per-layer
metrics instead.  perfbench/README.md describes workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import weakref
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402

# Input sizes.  "full" is what the benchmark measures; "tiny" exists for
# the smoke test and uses the same code paths at a fraction of the cost.
SIZES = {
    "full": {"denominator": 6, "book_n": 12, "book_m": 24,
             "decode_n": 12, "decode_m": 12, "trials": 65536},
    "tiny": {"denominator": 4, "book_n": 8, "book_m": 8,
             "decode_n": 8, "decode_m": 4, "trials": 1024},
}

# Codebooks are drawn from one of this many variants (seed mod VARIANTS),
# each with outputs recorded in references.json.
VARIANTS = 12

THREAD_VARS = ("MACEXP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Fresh interpreters timed importing macexp; setup_s takes their median.
IMPORT_REPEATS = 5

# A run in trace mode skips the untraced comparison passes (and reports
# trace.overhead_s absent) when they would end later than this many
# seconds after the start.
TRACE_BUDGET_S = 150.0

cli_module = None  # macexp.cli, bound by import_program()


def import_program():
    """Import macexp from this checkout's src/, or exit with status 1."""
    global cli_module
    if not (SRC / "macexp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no macexp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import macexp.cli
    if not Path(macexp.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported macexp from {macexp.__file__}, "
                 f"not from {SRC}")
    cli_module = macexp.cli


def machine_info(thread_env: dict) -> dict:
    import numpy as np
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gib": round(ram / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": thread_env,
    }


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def read_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def cli(argv: list[str]):
    """Run macexp.cli.main(argv); return its exit code, or "raised"."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_module.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # an op that raises counts as failed; keep running
        traceback.print_exc()
        return "raised"


def adder_channel(eps: float) -> dict:
    """Modulo-two adder followed by a binary symmetric flip of ``eps``."""
    rows = []
    for x in range(2):
        for y in range(2):
            row = [eps, eps]
            row[(x + y) % 2] = 1.0 - eps
            rows.append(row)
    return {"kind": "channel", "x_size": 2, "y_size": 2, "z_size": 2,
            "rows": rows}


def balanced_book(rng, m: int, n: int) -> list[list[int]]:
    """``m`` distinct binary words of length ``n`` with n/2 ones each."""
    base = [0] * (n // 2) + [1] * (n - n // 2)
    words: list[list[int]] = []
    seen = set()
    while len(words) < m:
        word = list(base)
        rng.shuffle(word)
        if tuple(word) not in seen:
            seen.add(tuple(word))
            words.append(word)
    return words


def codebook_doc(rng, m: int, n: int) -> dict:
    half = [[n // 2, n - n // 2]]
    return {"kind": "codebook_pair", "n": n, "u_size": 1, "x_size": 2,
            "y_size": 2, "u": [0] * n, "cx": balanced_book(rng, m, n),
            "cy": balanced_book(rng, m, n), "p_ux": half, "p_uy": half}


def same(got, want, tol) -> bool:
    numbers = (int, float)
    if (tol is not None and isinstance(got, numbers)
            and isinstance(want, numbers) and not isinstance(got, bool)):
        if math.isinf(want) or math.isinf(got):
            return got == want
        return abs(got - want) <= tol
    return got == want


class Workload:
    """One benchmark workload: inputs, a cold set-up, and a timed pass.

    ``run_pass`` returns (key, ops, observation) groups.  A group's ops
    fail together when its observation differs from the reference or
    ``cross_check`` rejects it.
    """

    name = ""
    setup_repeats = 5       # set-ups per run; setup_s reports the median
    unrecorded = ()         # observed fields kept out of the reference

    def __init__(self, size: str, seed: int, work: Path):
        self.size = SIZES[size]
        self.seed = seed
        self.variant = seed % VARIANTS
        self.work = work

    def write_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Cold work done before the timed phase (besides the inputs)."""

    def run_pass(self) -> list[tuple[str, int, dict]]:
        raise NotImplementedError

    def cross_check(self, groups) -> set[str]:
        return set()

    def tolerance(self, field: str):
        return None

    def reference_key(self) -> str:
        return str(self.variant)

    def failed_keys(self, groups, reference) -> set[str]:
        bad = self.cross_check(groups)
        for key, _, obs in groups:
            want = None if reference is None else reference.get(key)
            if not want or not all(
                    same(obs.get(f), v, self.tolerance(f))
                    for f, v in want.items()):
                bad.add(key)
        return bad

    def recorded(self, groups) -> dict:
        return {key: {f: v for f, v in obs.items() if f not in self.unrecorded}
                for key, _, obs in groups}


class ExponentSweep(Workload):
    """Expurgated and baseline exponents, all branches, on a rate grid."""

    name = "exponent_sweep_d6"
    setup_repeats = 1       # the cold solve fills the lattice caches
    RATES = (0.2, 0.5, 0.8)
    LAWS = {"uniform": [[0.5, 0.5]], "x_quarter": [[0.25, 0.75]]}

    def __init__(self, size, seed, work):
        super().__init__(size, seed, work)
        grid = [(rx, ry) for rx in self.RATES for ry in self.RATES]
        rng = random.Random(seed)
        self.order = {law: rng.sample(grid, len(grid)) for law in self.LAWS}

    def write_inputs(self):
        write_json(self.work / "channel.json", adder_channel(0.1))
        for law, px in self.LAWS.items():
            write_json(self.work / f"law_{law}.json",
                       {"kind": "input_law", "p_u": [1.0],
                        "p_x_given_u": px, "p_y_given_u": [[0.5, 0.5]]})

    def solve(self, law: str, rx: float, ry: float) -> dict:
        out = self.work / "sweep.json"
        out.unlink(missing_ok=True)
        code = cli(["exponent", "--channel", str(self.work / "channel.json"),
                    "--law", str(self.work / f"law_{law}.json"),
                    "--rx", repr(rx), "--ry", repr(ry),
                    "--denominator", str(self.size["denominator"]),
                    "--baseline", "--out", str(out)])
        obs = {"exit": code}
        doc = read_json(out) if code == 0 else None
        if doc is not None and len(doc.get("results", [])) == 1:
            row = doc["results"][0]
            for f in ("value", "branch", "source", "baseline_value",
                      "baseline_branch"):
                obs[f] = row.get(f)
        return obs

    def setup(self):
        self.solve("uniform", *self.order["uniform"][0])

    def run_pass(self):
        return [(f"{law}:{rx},{ry}", 1, self.solve(law, rx, ry))
                for law in self.LAWS for rx, ry in self.order[law]]

    def cross_check(self, groups):
        # the baseline never exceeds the expurgated exponent
        bad = set()
        for key, _, obs in groups:
            base, value = obs.get("baseline_value"), obs.get("value")
            if not (isinstance(base, float) and isinstance(value, float)
                    and base <= value):
                bad.add(key)
        return bad

    def tolerance(self, field):
        return 1e-9 if field in ("value", "baseline_value") else None

    def reference_key(self):
        return "all"    # the seed only orders the grid


class CodebookCheck(Workload):
    """verify-packing, then expurgate with its audit, on one codebook pair."""

    name = "codebook_check_n12"

    def write_inputs(self):
        rng = random.Random(f"codebook-{self.variant}")
        write_json(self.work / "book.json",
                   codebook_doc(rng, self.size["book_m"], self.size["book_n"]))

    def run_pass(self):
        w = self.work
        for f in ("packing.json", "kept.json", "expurgation.json"):
            (w / f).unlink(missing_ok=True)
        obs = {"verify_exit": cli(
            ["verify-packing", "--codebook", str(w / "book.json"),
             "--delta", "0.05", "--out", str(w / "packing.json")])}
        obs["expurgate_exit"] = cli(
            ["expurgate", "--codebook", str(w / "book.json"),
             "--delta", "0.1", "--out", str(w / "kept.json"),
             "--report", str(w / "expurgation.json")])
        packing = read_json(w / "packing.json") or {}
        for kind in ("average_need_delta", "per_pair_need_delta"):
            for family, need in (packing.get(kind) or {}).items():
                obs[f"need.{kind}.{family}"] = need
        for book in ("single_user_x", "single_user_y"):
            for kind, need in (packing.get(book) or {}).items():
                obs[f"need.{book}.{kind}"] = need
        report = read_json(w / "expurgation.json") or {}
        for f in ("kept_x", "kept_y", "audit_ok"):
            obs[f] = report.get(f)
        kept = w / "kept.json"
        obs["kept_sha256"] = (hashlib.sha256(kept.read_bytes()).hexdigest()
                              if kept.is_file() else None)
        m = self.size["book_m"]
        return [("check", m * m, obs)]

    def tolerance(self, field):
        return 1e-9 if field.startswith("need.") else None


class Decode(Workload):
    """Monte Carlo and exact decoding error of one codebook pair."""

    name = "decode_n12"
    unrecorded = ("p_mc", "stderr")

    def write_inputs(self):
        rng = random.Random(f"decode-{self.variant}")
        write_json(self.work / "book.json",
                   codebook_doc(rng, self.size["decode_m"],
                                self.size["decode_n"]))
        write_json(self.work / "channel.json", adder_channel(0.05))

    def run_pass(self):
        w = self.work
        trials = self.size["trials"]
        base = ["simulate", "--codebook", str(w / "book.json"),
                "--channel", str(w / "channel.json")]
        for f in ("mc.json", "exact.json"):
            (w / f).unlink(missing_ok=True)
        mc = {"exit": cli(base + ["--trials", str(trials),
                                  "--seed", str(self.variant),
                                  "--out", str(w / "mc.json")])}
        exact = {"exit": cli(base + ["--exact", "--out",
                                     str(w / "exact.json")])}
        doc = read_json(w / "mc.json") or {}
        if isinstance(doc.get("p_error"), float):
            mc["p_mc"] = doc["p_error"]
            mc["stderr"] = doc.get("stderr")
            mc["errors"] = round(doc["p_error"] * trials)
        exact["p_exact"] = (read_json(w / "exact.json") or {}).get("p_error")
        return [("mc", trials, mc),
                ("exact", 2 ** self.size["decode_n"], exact)]

    def cross_check(self, groups):
        obs = {key: o for key, _, o in groups}
        p_mc, err = obs["mc"].get("p_mc"), obs["mc"].get("stderr")
        p_exact = obs["exact"].get("p_exact")
        try:
            ok = abs(p_mc - p_exact) <= 4.0 * err
        except TypeError:
            ok = False
        return set() if ok else {"mc"}

    def tolerance(self, field):
        return 1e-12 if field == "p_exact" else None


WORKLOADS = {w.name: w for w in (ExponentSweep, CodebookCheck, Decode)}


def timed_passes(wl: Workload, seconds: float, clock, passes=None):
    """Whole passes until ``seconds`` have gone by (or exactly ``passes``)."""
    times, results = [], []
    start = clock()
    while True:
        t0 = clock()
        groups = wl.run_pass()
        times.append(clock() - t0)
        results.append(groups)
        done = len(times) >= passes if passes else clock() - start >= seconds
        if done:
            return times, results, clock() - start


# --- tracing -------------------------------------------------------------

class CacheWatch:
    """Counts get_cache calls that return a new cache object."""

    def __init__(self):
        self.last = {}

    def __call__(self, tr, args, result):
        key = repr(sorted(args.items()))
        ref = self.last.get(key)
        if ref is None or ref() is not result:
            tr.counts["lattice.cache_misses"] += 1
            tr.counts["lattice.rows_built"] += result.total
            self.last[key] = weakref.ref(result)


class PinnedRows:
    """Counts, per minimize_branch call, the rows it scans and the rows
    whose pinned marginals lie within 0.5/d of the input law."""

    def __init__(self):
        self.memo = {}

    def __call__(self, tr, args, result):
        cache, law = args["cache"], args["law_marginals"]
        tr.counts["lattice.rows_scanned"] += cache.total
        key = (id(cache), cache.total,
               tuple(sorted((k, v.tobytes()) for k, v in law.items())))
        if key not in self.memo:
            self.memo[key] = self.count(cache, law)
        tr.counts["lattice.rows_pinned"] += self.memo[key]

    @staticmethod
    def count(cache, law) -> int:
        import numpy as np
        spec, sizes, d = cache.spec, tuple(cache.sizes), cache.d
        ok = np.ones(cache.total, dtype=bool)
        chunk = 1 << 17
        for a in range(0, cache.total, chunk):
            b = min(a + chunk, cache.total)
            view = cache.counts[a:b].reshape((b - a,) + sizes)
            for subset, base in spec.marginal_eq:
                drop = tuple(i + 1 for i, lab in enumerate(spec.labels)
                             if lab not in subset)
                m = view.sum(axis=drop, dtype=np.int64).reshape(b - a, -1) / d
                ok[a:b] &= (np.abs(m - law[tuple(base)][None, :])
                            <= 0.5 / d).all(axis=1)
        return int(ok.sum())


def _rows_enumerated(tr, args, result):
    tr.counts["typeclasses.rows_enumerated"] += result.shape[0]


def _packing_types(tr, args, result):
    families = result.families.values()
    tr.counts["codebooks.distinct_types"] += sum(len(f.entries)
                                                 for f in families)
    tr.counts["codebooks.patterns"] += sum(e.count for f in families
                                           for e in f.entries)


def _mc_decoded(tr, args, result):
    pair = args["pair"]
    tr.counts["simulate.sequences_decoded"] += result.trials
    tr.counts["simulate.pair_scores"] += result.trials * pair.m_x * pair.m_y


def _exact_decoded(tr, args, result):
    pair = args["pair"]
    outputs = args["w"].z_alphabet.size ** pair.n
    tr.counts["simulate.sequences_decoded"] += outputs
    tr.counts["simulate.pair_scores"] += outputs * pair.m_x * pair.m_y


PACKING_EXPONENTS = ("packing_exponent_pair", "packing_exponent_x",
                     "packing_exponent_y", "packing_exponent_xy")
SOLVES = ("expurgated_exponent", "baseline_exponent")
# every macexp.fileio function that macexp.cli binds
FILEIO = ("codebook_to_dict", "file_sha256", "law_to_dict", "load_channel",
          "load_codebook", "load_law", "run_manifest", "save_json",
          "write_csv")


def install(tr: Tracer) -> None:
    """Wrap each function where the calling module bound it."""
    import macexp.cli as cli_m
    import macexp.codebooks as codebooks_m
    import macexp.exponents as exponents_m
    import macexp.lattice as lattice_m

    tr.wrap(cli_m, "main", "cli.main")
    tr.wrap(lattice_m, "compositions_array", "typeclasses.compositions_array",
            _rows_enumerated, ("typeclasses.rows_enumerated",))
    tr.wrap(exponents_m, "get_cache", "lattice.get_cache", CacheWatch(),
            ("lattice.cache_misses", "lattice.rows_built"))
    tr.wrap(exponents_m, "minimize_branch", "lattice.minimize_branch",
            PinnedRows(), ("lattice.rows_scanned", "lattice.rows_pinned"))
    for f in SOLVES:
        tr.wrap(cli_m, f, f"exponents.{f}")
    tr.wrap(cli_m, "packing_averages", "codebooks.packing_averages",
            _packing_types, ("codebooks.distinct_types", "codebooks.patterns"))
    for f in ("per_pair_maxima", "single_user_packing_check", "expurgate",
              "audit_confusability"):
        tr.wrap(cli_m, f, f"codebooks.{f}")
    tr.wrap(codebooks_m, "confusability_feasible",
            "exponents.confusability_feasible")
    for f in PACKING_EXPONENTS:
        tr.wrap(codebooks_m, f, f"exponents.{f}")
    tr.wrap(cli_m, "error_prob_mc", "simulate.error_prob_mc", _mc_decoded,
            ("simulate.sequences_decoded", "simulate.pair_scores"))
    tr.wrap(cli_m, "error_prob_exact", "simulate.error_prob_exact",
            _exact_decoded,
            ("simulate.sequences_decoded", "simulate.pair_scores"))
    for f in FILEIO:
        tr.wrap(cli_m, f, f"fileio.{f}")


def _ratio(a, b, scale=1.0):
    if a is None or b is None:
        return None
    return scale * a / b if b else 0.0


def _sum(values):
    """Sum of the values present; None when all are absent."""
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def layer_metrics(tr: Tracer, overhead) -> dict:
    """Per-layer metric name -> (value or None when absent, unit)."""
    def count(name):
        return None if name in tr.absent else tr.counts[name]

    def layer_self(prefix, spans):
        """Self time of the spans named ``prefix*``; absent if all of the
        wrapped ``spans`` are."""
        if all(f"{prefix}{n}" in tr.absent for n in spans):
            return None
        return tr.self_time(prefix)

    pe_calls = _sum([tr.calls(f"exponents.{f}") for f in PACKING_EXPONENTS])
    simulate_s = _sum([tr.total("simulate.error_prob_mc"),
                       tr.total("simulate.error_prob_exact")])
    return {
        "typeclasses.compositions_array_s":
            (tr.total("typeclasses.compositions_array"), "s"),
        "typeclasses.rows_enumerated":
            (count("typeclasses.rows_enumerated"), "count"),
        "lattice.get_cache_s": (layer_self("lattice.get_cache", ("",)), "s"),
        "lattice.cache_misses": (count("lattice.cache_misses"), "count"),
        "lattice.rows_built": (count("lattice.rows_built"), "count"),
        "lattice.minimize_branch_s":
            (tr.total("lattice.minimize_branch"), "s"),
        "lattice.minimize_branch_calls":
            (tr.calls("lattice.minimize_branch"), "count"),
        "lattice.rows_scanned": (count("lattice.rows_scanned"), "count"),
        "lattice.rows_pinned": (count("lattice.rows_pinned"), "count"),
        "lattice.pinned_share": (_ratio(count("lattice.rows_pinned"),
                                        count("lattice.rows_scanned"), 100.0),
                                 "%"),
        "exponents.self_s": (layer_self("exponents.", SOLVES), "s"),
        **{f"codebooks.{f}_s": (tr.total(f"codebooks.{f}"), "s") for f in (
            "packing_averages", "per_pair_maxima", "single_user_packing_check",
            "expurgate", "audit_confusability")},
        "exponents.confusability_feasible_s":
            (tr.total("exponents.confusability_feasible"), "s"),
        "codebooks.patterns": (count("codebooks.patterns"), "count"),
        "codebooks.distinct_types":
            (count("codebooks.distinct_types"), "count"),
        "codebooks.packing_exponent_calls": (pe_calls, "count"),
        "codebooks.evals_per_distinct_type":
            (_ratio(pe_calls, count("codebooks.distinct_types")), "ratio"),
        "simulate.error_prob_mc_s": (tr.total("simulate.error_prob_mc"), "s"),
        "simulate.error_prob_exact_s":
            (tr.total("simulate.error_prob_exact"), "s"),
        "simulate.sequences_decoded":
            (count("simulate.sequences_decoded"), "count"),
        "simulate.pair_scores_per_s":
            (_ratio(count("simulate.pair_scores"), simulate_s), "1/s"),
        "fileio.io_s": (layer_self("fileio.", FILEIO), "s"),
        "cli.self_s": (layer_self("cli.", ("main",)), "s"),
        "trace.overhead_s": (overhead, "s"),
    }


# --- driver ----------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="minimum length of the timed phase; passes are whole")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--reference", type=Path, default=REFERENCES,
                    help="reference values to check outputs against")
    return ap.parse_args(argv)


def prepare(args):
    """Import the program and create the run's working directories."""
    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.pop("MACEXP_THREADS", None)
    import_program()
    run_dir = OUT_DIR / (f"{args.workload}-{args.size}-seed{args.seed}-"
                         f"trace{args.trace}-pid{os.getpid()}")
    work = run_dir / "io"
    work.mkdir(parents=True, exist_ok=True)
    return thread_env, run_dir, work


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing macexp.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import macexp.cli"], env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup(wl: Workload) -> float:
    """Median import time plus the median of the workload's set-ups
    (inputs and cold first solve)."""
    import_s = import_seconds()
    times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.write_inputs()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return import_s + statistics.median(times)


def tally(wl: Workload, results, reference):
    attempted = failed = 0
    for groups in results:
        bad = wl.failed_keys(groups, reference)
        for key, ops, _ in groups:
            attempted += ops
            failed += ops if key in bad else 0
    return attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    thread_env, run_dir, work = prepare(args)
    machine = machine_info(thread_env)
    refs = read_json(args.reference) or {}
    wl = WORKLOADS[args.workload](args.size, args.seed, work)
    reference = refs.get(args.size, {}).get(wl.name, {}).get(
        wl.reference_key())

    if args.trace == 0:
        setup_s = setup(wl)
        times, results, wall = timed_passes(wl, args.seconds,
                                            time.perf_counter)
        attempted, failed = tally(wl, results, reference)
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(times), "s"),
            "ops_per_s": (attempted / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "ok_share": (1.0 - failed / attempted, "ratio"),
        }
        absent = []
    else:
        tr = Tracer()
        install(tr)
        t0 = time.perf_counter()
        try:
            wl.write_inputs()
            wl.setup()
            traced, results, _ = timed_passes(wl, args.seconds, tr.now)
        finally:
            tr.unwrap()
        tr.notes.append(f"traced set-up and passes: "
                        f"{time.perf_counter() - t0:.3f} s")
        overhead = None
        projected = time.perf_counter() - T_START + 1.25 * sum(traced)
        if projected <= TRACE_BUDGET_S:
            plain, more, _ = timed_passes(wl, 0, time.perf_counter,
                                          passes=len(traced))
            results += more
            overhead = statistics.median(traced) - statistics.median(plain)
        else:
            tr.notes.append(f"untraced passes skipped: projected "
                            f"{projected:.0f} s > {TRACE_BUDGET_S:.0f} s")
        attempted, failed = tally(wl, results, reference)
        layers = layer_metrics(tr, overhead)
        tr.dump(run_dir / "spans.json")
        absent = sorted(k for k, (v, _) in layers.items() if v is None)
        metrics = {k: (0.0 if v is None else v, u)
                   for k, (v, u) in layers.items()}

    summary = {"workload": wl.name, "size": args.size, "seed": args.seed,
               "variant": wl.variant, "trace": args.trace, "machine": machine,
               "failed_share": failed / attempted, "absent": absent}
    write_json(run_dir / "summary.json", summary)
    shutil.rmtree(work, ignore_errors=True)
    print(f"# {wl.name} size={args.size} seed={args.seed} "
          f"variant={wl.variant} trace={args.trace}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        mark = "  (absent)" if name in absent else ""
        print(f"# {name:<40} {value!r:>24} {unit}{mark}")
    print(f"# failed_share {failed / attempted!r} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
