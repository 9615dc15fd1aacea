"""Workload specifications.

Kept free of numeric imports: ``run.py`` reads a workload's thread
count from here and pins BLAS threads before numpy loads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "denoise" (denoise_image on a noisy scene) or "learn" (learn on raw patches)
    threads: int  # BLAS threads
    scene_size: int
    iterations: int  # learner sweeps; 0 skips learning (the DCT baseline)
    sigma: float = 20.0  # denoise: noise level
    signals: int = 0  # learn: patches drawn from the scene
    lam: float = 0.0  # learn: sparsity weight
    num_atoms: int = 256
    patch_size: int = 8


WORKLOADS = {
    w.name: w
    for w in (
        # The user's path: default DenoiseConfig, all 62,001 patches.
        # Learning (about 0.5 codes per signal) and OMP (about 1 atom per
        # patch) both matter here.
        Workload("denoise-256-s20", "denoise", threads=2, scene_size=256, iterations=10),
        # The DCT baseline pass (iterations=0): OMP dominates and the
        # learner is never called, so learner changes must not move it.
        Workload("dct-256-s20", "denoise", threads=2, scene_size=256, iterations=0),
        # Learning alone, single-threaded, on raw patches at a low lambda:
        # codes are several times denser than in denoising, so the loops
        # over code columns outweigh the per-atom GEMVs.  OMP and patch
        # extraction are bypassed.
        Workload(
            "learn-30k-lam30", "learn", threads=1, scene_size=512, iterations=10,
            signals=30000, lam=30.0,
        ),
    )
}
