"""Runs one workload: inputs, timed calls, output checks and metrics.

Imported by ``run.py`` only after BLAS threads are pinned and the
checkout's ``src`` directory is on ``sys.path``.  Inputs come from the
seed alone and are generated here; the library sees only the arrays.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import sparsedl.denoise
import sparsedl.dictionaries
import sparsedl.learner
from sparsedl.omp import DEGENERATE, REACHED_ATOM_CAP, REACHED_ERROR_GOAL

from scene import make_scene
from spans import Hook, Tracer

# Output floors (acceptance criterion 8's margins) and the scene's target.
GAIN_OVER_NOISY_DB = 3.0
MARGIN_UNDER_DCT_DB = 0.3
DCT_ATOMS_PER_PATCH = (1.0, 4.0)

RISE_TOL = 1e-9  # relative objective rise still counted as rounding
NORM_TOL = 1e-10  # atom norm slack
OBJECTIVE_TOL = 1e-9  # relative gap between the trace and a recomputed objective

SETUP_SAMPLES = 3  # import probes before the timed window, and again after it
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import sparsedl.denoise, sparsedl.learner, sparsedl.omp, sparsedl.patches, "
    "sparsedl.dictionaries; print(time.perf_counter() - t)"
)

END_TO_END = {
    "wall_s": "s",
    "signals_per_s": "signals/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "psnr_db": "dB",
    "objective": "gray2",
}

PER_LAYER = {
    "learner.learn_s": "s",
    "learner.sweeps": "count",
    "learner.sweep_s": "s",
    "learner.self_s": "s",
    "learner.threshold_s": "s",
    "learner.threshold_calls": "count",
    "learner.codes_per_signal": "codes/signal",
    "learner.density": "ratio",
    "learner.objective_rises": "count",
    "omp.code_s": "s",
    "omp.signals": "count",
    "omp.signals_per_s": "signals/s",
    "omp.atoms_per_signal": "atoms/signal",
    "omp.goal_share": "ratio",
    "omp.atom_cap": "count",
    "omp.degenerate": "count",
    "patches.extract_s": "s",
    "patches.aggregate_s": "s",
    "patches.count": "count",
    "patches.extract_mb": "MB",
    "dictionaries.dct_s": "s",
    "denoise.self_s": "s",
    "trace.overhead_s": "s",
}

DENOISE_ROOT = "denoise.denoise_image"


def _learn_counts(result):
    D, C, trace = result
    n, N = D.shape[0], C.shape[0]
    return {
        "sweeps": len(trace),
        "signals": N,
        "nnz": int(C.nnz),
        "density": C.nnz / (n * N),
        "rises": objective_rises(trace.objective),
    }


def _omp_counts(result):
    C, statuses = result
    stops = Counter(statuses)
    return {
        "signals": C.shape[0],
        "atoms": int(C.nnz),
        REACHED_ERROR_GOAL: stops[REACHED_ERROR_GOAL],
        REACHED_ATOM_CAP: stops[REACHED_ATOM_CAP],
        DEGENERATE: stops[DEGENERATE],
    }


def _extract_counts(Y):
    return {"patches": Y.shape[1], "bytes": Y.nbytes}


# Every public function the denoiser and the learner reach through a
# module attribute.  learn is wrapped in both modules: denoise_image
# calls sparsedl.denoise.learn, the learn workload sparsedl.learner.learn.
HOOKS = (
    Hook("sparsedl.denoise", "extract_patches", "patches.extract", _extract_counts),
    Hook("sparsedl.denoise", "overcomplete_dct_dictionary", "dictionaries.dct"),
    Hook("sparsedl.denoise", "learn", "learner.learn", _learn_counts),
    Hook("sparsedl.learner", "learn", "learner.learn", _learn_counts),
    Hook("sparsedl.denoise", "omp_code_matrix", "omp.code", _omp_counts),
    Hook("sparsedl.denoise", "aggregate_patches", "patches.aggregate"),
    Hook("sparsedl.learner", "truncated_hard_threshold", "learner.threshold"),
)


def objective_rises(objective) -> int:
    obj = np.asarray(objective, dtype=float)
    return int(np.sum(np.diff(obj) > RISE_TOL * np.abs(obj[:-1])))


def psnr(reference: np.ndarray, estimate: np.ndarray) -> float:
    mse = float(np.mean((reference - estimate) ** 2))
    return float(10.0 * np.log10(255.0**2 / mse))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def sample_patches(image: np.ndarray, patch_size: int, count: int, rng) -> np.ndarray:
    """``count`` distinct raw patches, vectorized column-major like the library's."""
    p = patch_size
    windows = np.lib.stride_tricks.sliding_window_view(image, (p, p))
    rows, cols = windows.shape[:2]
    pick = rng.choice(rows * cols, size=count, replace=False)
    return windows[pick // cols, pick % cols].transpose(0, 2, 1).reshape(count, p * p).T.copy()


def centered_energy(image: np.ndarray, patch_size: int) -> float:
    """``||Y||_F^2`` of the mean-removed stride-1 patches: the learner's
    objective after zero sweeps from zero codes."""
    windows = np.lib.stride_tricks.sliding_window_view(image, (patch_size, patch_size))
    centered = windows - windows.mean(axis=(2, 3), keepdims=True)
    return float(np.sum(centered**2))


class DenoiseCase:
    """``denoise_image`` on a seeded scene with seeded Gaussian noise."""

    def __init__(self, w, seed: int):
        self.w = w
        self.clean = make_scene(w.scene_size, [seed, 0]).astype(float)
        noise = np.random.default_rng([seed, 1]).standard_normal(self.clean.shape)
        self.noisy = self.clean + w.sigma * noise
        self.noisy_db = psnr(self.clean, self.noisy)
        self.signals = (w.scene_size - w.patch_size + 1) ** 2
        self.dct_db = None
        # without learning, the objective is the starting one, from zero codes
        self.start_objective = centered_energy(self.noisy, w.patch_size) if w.iterations == 0 else None
        self.scene = {"noisy_psnr_db": self.noisy_db}

    def call(self, iterations=None):
        w = self.w
        config = sparsedl.denoise.DenoiseConfig(
            sigma=w.sigma,
            patch_size=w.patch_size,
            num_atoms=w.num_atoms,
            iterations=w.iterations if iterations is None else iterations,
        )
        return sparsedl.denoise.denoise_image(self.noisy, config)

    def setup(self):
        """Untimed DCT pass: warms up, and measures the scene's targets.

        Returns the check outcome; for the DCT workload its digest is the
        reference every timed call must reproduce.
        """
        tracer = Tracer()
        with tracer.installed(HOOKS):
            out = self.call(iterations=0)
        atoms = tracer.count("omp.code", "atoms") / tracer.count("omp.code", "signals")
        outcome = self.check(out, dct_pass=True)
        self.dct_db = outcome["psnr_db"]
        lo, hi = DCT_ATOMS_PER_PATCH
        if not lo <= atoms <= hi:
            outcome["failures"].append(f"DCT-OMP codes {atoms:.3f} atoms/patch, target [{lo}, {hi}]")
        self.scene.update(dct_psnr_db=self.dct_db, dct_atoms_per_patch=atoms)
        return outcome

    def check(self, out, dct_pass=False):
        estimate, result = out
        failures = []
        if estimate.shape != self.clean.shape or not np.all(np.isfinite(estimate)):
            failures.append("estimate is not a finite image of the input's shape")
            return {"failures": failures, "digest": None, "psnr_db": float("nan"), "objective": float("nan")}
        db = psnr(self.clean, np.clip(np.rint(estimate), 0.0, 255.0))
        if db < self.noisy_db + GAIN_OVER_NOISY_DB:
            failures.append(f"PSNR {db:.3f} dB under noisy {self.noisy_db:.3f} + {GAIN_OVER_NOISY_DB}")
        if sum(result.omp_statuses.values()) != self.signals:
            failures.append(f"OMP statuses cover {sum(result.omp_statuses.values())} patches")
        learned = not dct_pass and self.w.iterations > 0
        if learned:
            obj = np.asarray(result.trace.objective)
            if len(obj) != self.w.iterations or not np.all(np.isfinite(obj)):
                failures.append("learn trace is short or not finite")
            elif objective_rises(obj):
                failures.append(f"objective rose {objective_rises(obj)} times")
            if db < self.dct_db - MARGIN_UNDER_DCT_DB:
                failures.append(f"PSNR {db:.3f} dB under DCT {self.dct_db:.3f} - {MARGIN_UNDER_DCT_DB}")
            self.scene["learned_gain_db"] = db - self.noisy_db
            objective = float(obj[-1])
        else:
            objective = self.start_objective
        return {
            "failures": failures,
            "digest": digest(estimate.astype(float)),
            "psnr_db": db,
            "objective": objective,
        }

    def traced(self, tracer):
        with tracer.span(DENOISE_ROOT):
            return self.call()


class LearnCase:
    """``learn`` on raw patches drawn at seeded positions of a seeded scene."""

    def __init__(self, w, seed: int):
        self.w = w
        scene = make_scene(w.scene_size, [seed, 0]).astype(float)
        self.Y = sample_patches(scene, w.patch_size, w.signals, np.random.default_rng([seed, 2]))
        self.D0 = sparsedl.dictionaries.overcomplete_dct_dictionary(w.patch_size**2, w.num_atoms)
        self.signals = w.signals * w.iterations  # signal-sweeps per call
        self.scene = {}

    def call(self, Y=None, iterations=None):
        w = self.w
        config = sparsedl.learner.LearnConfig(
            num_atoms=w.num_atoms,
            iterations=w.iterations if iterations is None else iterations,
            lam=w.lam,
            init_dictionary=self.D0,
        )
        return sparsedl.learner.learn(self.Y if Y is None else Y, config)

    def setup(self):
        """Untimed one-sweep warm-up on a slice of the signals."""
        Y = self.Y[:, : min(1000, self.Y.shape[1])]
        return self.check(self.call(Y, iterations=1), Y)

    def check(self, out, Y=None):
        Y = self.Y if Y is None else Y
        D, C, trace = out
        lam = self.w.lam
        bound = float(np.linalg.norm(Y))  # the learner's default code bound
        failures = []
        norms = np.linalg.norm(D, axis=0)
        if not np.all(np.isfinite(D)) or np.max(np.abs(norms - 1.0)) > NORM_TOL:
            failures.append("atoms are not finite with unit norm")
        mags = np.abs(C.data)
        if C.shape != (Y.shape[1], self.w.num_atoms) or not np.all(np.isfinite(mags)):
            failures.append("codes have the wrong shape or are not finite")
        elif mags.size and (mags.min() < lam or mags.max() > bound):
            failures.append(f"nonzero codes leave [{lam}, {bound}]")
        obj = np.asarray(trace.objective)
        if not np.all(np.isfinite(obj)):
            failures.append("objective is not finite")
        elif objective_rises(obj):
            failures.append(f"objective rose {objective_rises(obj)} times")
        resid = Y - np.asarray(C @ D.T).T
        fit = float(np.vdot(resid, resid))
        recomputed = fit + lam * lam * C.nnz
        if abs(recomputed - obj[-1]) > OBJECTIVE_TOL * abs(recomputed):
            failures.append(f"trace objective {obj[-1]} differs from recomputed {recomputed}")
        C = C.tocsc()
        return {
            "failures": failures,
            "digest": digest(D, C.indptr.astype(np.int64), C.indices.astype(np.int64), C.data),
            "psnr_db": float(10.0 * np.log10(255.0**2 * resid.size / fit)),
            "objective": float(obj[-1]),
        }

    def traced(self, tracer):
        return self.call()


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced call (``trace.overhead_s`` aside)."""
    t = tracer
    learn_s = t.total("learner.learn")
    sweeps = t.count("learner.learn", "sweeps")
    learned = t.count("learner.learn", "signals")
    omp_s = t.total("omp.code")
    coded = t.count("omp.code", "signals")
    return {
        "learner.learn_s": learn_s,
        "learner.sweeps": sweeps,
        "learner.sweep_s": learn_s / sweeps if sweeps else 0.0,
        "learner.self_s": t.self_time("learner.learn"),
        "learner.threshold_s": t.total("learner.threshold"),
        "learner.threshold_calls": len(t.named("learner.threshold")),
        "learner.codes_per_signal": t.count("learner.learn", "nnz") / learned if learned else 0.0,
        "learner.density": t.count("learner.learn", "density"),
        "learner.objective_rises": t.count("learner.learn", "rises"),
        "omp.code_s": omp_s,
        "omp.signals": coded,
        "omp.signals_per_s": coded / omp_s if omp_s else 0.0,
        "omp.atoms_per_signal": t.count("omp.code", "atoms") / coded if coded else 0.0,
        "omp.goal_share": t.count("omp.code", REACHED_ERROR_GOAL) / coded if coded else 0.0,
        "omp.atom_cap": t.count("omp.code", REACHED_ATOM_CAP),
        "omp.degenerate": t.count("omp.code", DEGENERATE),
        "patches.extract_s": t.total("patches.extract"),
        "patches.aggregate_s": t.total("patches.aggregate"),
        "patches.count": t.count("patches.extract", "patches"),
        "patches.extract_mb": t.count("patches.extract", "bytes") / 1e6,
        "dictionaries.dct_s": t.total("dictionaries.dct"),
        "denoise.self_s": t.self_time(DENOISE_ROOT),
    }


def import_seconds() -> float:
    """Import time of the sparsedl modules in a fresh interpreter."""
    src = str(Path(sparsedl.__file__).resolve().parent.parent)
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(probe.stdout)


def environment(thread_vars, loadavg) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": list(loadavg),
    }


def measure(w, seed: int, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run workload ``w`` for about ``seconds`` and return the full record.

    Without ``trace`` no wrapper is installed and the record's metrics
    are the end-to-end ones; set-up time is sampled both before and after
    the timed window, so that its median spans the run.  With ``trace``,
    untraced and traced calls alternate and the metrics are the per-layer
    ones, medians over the traced calls, plus the traced-minus-untraced
    wall time.  A call counts as failed when any check on its output
    fails or its digest differs from the run's first.
    """
    case = DenoiseCase(w, seed) if w.kind == "denoise" else LearnCase(w, seed)
    setup = []
    if not trace:
        import_seconds()  # unrecorded: leaves compiled bytecode for the samples
        setup = [import_seconds() for _ in range(setup_samples)]
    outcomes = [case.setup()]
    reference = outcomes[0]["digest"] if w.kind == "denoise" and w.iterations == 0 else None

    walls, traced_walls, layers, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        traced = trace and len(traced_walls) < len(walls)
        if traced:
            tracer = Tracer()
            with tracer.installed(HOOKS):
                t0 = time.perf_counter()
                out = case.traced(tracer)
                traced_walls.append(time.perf_counter() - t0)
            layers.append(layer_metrics(tracer))
            spans.append(tracer.as_records())
        else:
            t0 = time.perf_counter()
            out = case.call()
            walls.append(time.perf_counter() - t0)
        outcome = case.check(out)
        del out
        reference = reference or outcome["digest"]
        if outcome["digest"] != reference:
            outcome["failures"].append("digest differs from the run's first output")
        outcomes.append(outcome)
        enough = walls and (traced_walls or not trace)
        next_end = time.perf_counter() - start + statistics.median(walls + traced_walls)
        if enough and next_end > seconds:
            break

    if not trace:
        setup += [import_seconds() for _ in range(setup_samples)]
    failed = sum(1 for o in outcomes if o["failures"])
    last = outcomes[-1]
    wall = statistics.median(walls)
    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall,
            "signals_per_s": case.signals / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
            "psnr_db": last["psnr_db"],
            "objective": last["objective"],
        }
        units = END_TO_END
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "scene": case.scene,
        "walls_s": walls,
        "traced_walls_s": traced_walls,
        "setup_samples_s": setup,
        "digest": reference,
        "failures": [f for o in outcomes for f in o["failures"]],
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "spans": spans,
    }


def main(w, seed: int, seconds: int, trace: bool, thread_vars, loadavg) -> int:
    env = environment(thread_vars, loadavg)
    record = measure(w, seed, seconds, trace)
    record["env"] = env
    out_dir = Path("perfbench") / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {w.name}  seed {seed}  trace {int(trace)}")
    print("env " + json.dumps(env))
    print("scene " + json.dumps(record["scene"]))
    print(f"calls {len(record['walls_s'])} untraced, {len(record['traced_walls_s'])} traced; digest {record['digest']}")
    for name, m in record["metrics"].items():
        print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"FAILED CHECK: {failure}")
    print(f"record {path}")
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0
