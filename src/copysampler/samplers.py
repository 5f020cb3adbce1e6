"""Synthetic-set generators: uniform, boundary-exploiting, and
gradient-sign augmentation.

Every sampler takes a budget N, an oracle and a `RandomSource` (keyword-only
`rng=` for the boundary and jacobian samplers) and returns exactly N
labelled points inside the unit hypercube.  The boundary sampler spends half
of its budget on uniform exploration and the other half on threads: chains
of points that hop across the decision boundary at a fixed step, seeded by
bisection between differently-labelled uniform draws.  `thread_step` takes
one hop from a point, its label and its last direction; the sampler's loop
keeps those in locals, with a spawn countdown that queues every few accepted
points as the start of another thread.

The random and jacobian samplers generate points accumulatively, so a
prefix of a run reproduces a smaller budget's run.  The boundary sampler
does not: its first N/2 rows are its uniform points, so a prefix of N/2
rows or fewer holds no thread point, where its own run of that budget
spends half on threads (ROADMAP.md, item 1).
"""

from __future__ import annotations

import logging
from collections import deque

import numpy as np

from .config import BoundaryParams, JacobianParams, TrainConfig
from .copies import TrainingError, train
from .core import (
    DRAW_BLOCK, LabeledSample, RandomSource, SampleLedger, SyntheticDataset,
    round_half_up,
)
from .oracles import Oracle

log = logging.getLogger(__name__)

ALPHA_SWEEP = np.linspace(1.0, -1.0, 21)
# sqrt(1 - alpha^2) for each alpha: the weight of the fresh direction w
_W_WEIGHT = np.sqrt(np.maximum(0.0, 1.0 - ALPHA_SWEEP * ALPHA_SWEEP))

# A scan this long without a label change means the oracle looks constant.
_CONSTANT_SCAN_FACTOR = 10


def random_sampler(
    N: int,
    oracle: Oracle,
    rng: RandomSource,
    progress=None,
) -> SyntheticDataset:
    """N i.i.d. uniform points, drawn and labelled in blocks of `DRAW_BLOCK` rows."""
    if N < 1:
        raise ValueError("budget must be at least 1")
    ledger = SampleLedger(oracle, N, progress)
    for start in range(0, N, DRAW_BLOCK):
        ledger.label(rng.uniform((min(DRAW_BLOCK, N - start), oracle.d)))
    return ledger.dataset("random", rng.seed)


def binary_search_boundary(
    z_a: LabeledSample,
    z_b: LabeledSample,
    eps: float,
    oracle: Oracle,
) -> tuple[tuple[LabeledSample, LabeledSample], list[LabeledSample]]:
    """Bisect between two differently-labelled points until they are < eps apart.

    Returns the final straddling pair plus every queried midpoint in visit
    order (the midpoints belong to the synthetic set; the caller appends
    them).  The label of the returned a-side equals z_a's label throughout.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if z_a.label == z_b.label:
        raise ValueError("endpoints must carry different labels")
    a, ya = z_a.point, z_a.label
    b, yb = z_b.point, z_b.label
    visited: list[LabeledSample] = []
    while float(np.linalg.norm(a - b)) >= eps:
        mid = (a + b) / 2.0
        ym = oracle.query(mid)
        visited.append(LabeledSample(mid, ym))
        if ym != ya:
            b, yb = mid, ym
        else:
            a, ya = mid, ym
    return (LabeledSample(a, ya), LabeledSample(b, yb)), visited


def _draw_spawn_gap(rng: RandomSource, rate: float) -> int:
    # Zero draws are rounded up so a spawn always waits for a fresh point.
    return max(1, rng.poisson(rate))


def _random_unit(rng: RandomSource, d: int) -> np.ndarray:
    while True:
        u = rng.normal(d)
        norm = float(np.linalg.norm(u))
        if norm > 1e-12:
            return u / norm


def _orthonormal_to(u: np.ndarray, rng: RandomSource) -> np.ndarray:
    while True:
        g = rng.normal(u.shape[0])
        w = g - float(g @ u) * u
        norm = float(np.linalg.norm(w))
        if norm > 1e-12:
            return w / norm


def thread_step(
    z: np.ndarray,
    y: int,
    u: np.ndarray,
    oracle: Oracle,
    step: float,
    rng: RandomSource,
) -> tuple[np.ndarray, int, np.ndarray] | None:
    """One boundary-crossing step from the point z of label y, or None to stop.

    Sweeps the blend factor alpha from +1 down to -1 between the previous
    direction u and a fresh orthonormal direction w (drawn once per step),
    accepting the first unit direction v = alpha*u + sqrt(1-alpha^2)*w whose
    probe at distance `step` lands on the other side of the boundary, and
    returns (probe, label, v).  One oracle query is spent per alpha tried.
    The thread stops when a probe leaves the hypercube or when no alpha
    changes the label.
    """
    # Every direction and probe of the sweep at once, row by row the same
    # float operations as one alpha at a time; in 1-D only alpha = +-1.
    if z.shape[0] > 1:
        w = _orthonormal_to(u, rng)
        V = ALPHA_SWEEP[:, None] * u + _W_WEIGHT[:, None] * w
    else:
        V = ALPHA_SWEEP[[0, -1], None] * u
    probes = z + step * V
    # the sweep stops at its first probe outside the hypercube
    outside = ((probes < 0.0) | (probes > 1.0)).any(axis=1)
    stop = int(outside.argmax()) if outside.any() else len(V)
    for probe, v in zip(probes[:stop], V[:stop]):
        label = oracle.query(probe)
        if label != y:
            return probe, label, v
    return None


def boundary_sampler(
    N: int,
    oracle: Oracle,
    params: BoundaryParams | None = None,
    *,
    rng: RandomSource,
    progress=None,
) -> SyntheticDataset:
    """Half uniform exploration, half boundary exploitation.

    The uniform block comes first; the remaining ceil(N/2) samples come from
    repeated rounds of: uniform scanning until two consecutive draws
    disagree, bisection down to `epsilon`, then up to `max_threads` threads
    (seeded with `runs` copies of the bisection endpoint plus any spawned
    samples) of at most `max_steps` crossing steps each.  If a scan sees ten
    times `max_steps` draws without a label change the oracle is treated as
    constant and the remainder is filled uniformly, recorded in metadata.
    """
    if N < 2:
        raise ValueError("budget must be at least 2")
    params = (params or BoundaryParams()).resolved(N)
    d = oracle.d
    ledger = SampleLedger(oracle, N, progress)
    uniform_quota = N // 2
    ledger.label(rng.uniform((uniform_quota, d)))

    fallback = False
    scan_limit = _CONSTANT_SCAN_FACTOR * params.max_steps
    while len(ledger) < N and not fallback:
        # uniform scan until two consecutive draws disagree
        z_a = rng.uniform(d)
        y_a = oracle.query(z_a)
        same_run = 0
        found = False
        while len(ledger) < N:
            z_b, y_b = z_a, y_a
            z_a = rng.uniform(d)
            y_a = oracle.query(z_a)
            ledger.add(z_a, y_a)
            if y_a != y_b:
                found = True
                break
            same_run += 1
            if same_run >= scan_limit:
                fallback = True
                log.warning(
                    "no label change in %d uniform probes; finishing uniformly",
                    scan_limit,
                )
                break
        if not found or len(ledger) >= N:
            continue

        pair, visited = binary_search_boundary(
            LabeledSample(z_a, y_a), LabeledSample(z_b, y_b), params.epsilon, oracle
        )
        for sample in visited:
            if len(ledger) >= N:
                break
            ledger.add(sample.point, sample.label)
        seed_sample = visited[-1] if visited else pair[1]

        pending = deque([(seed_sample.point, seed_sample.label)] * params.runs)
        starts = 0
        while pending and starts < params.max_threads and len(ledger) < N:
            z, y = pending.popleft()
            starts += 1
            u = _random_unit(rng, d)
            countdown = _draw_spawn_gap(rng, params.spawn_rate)
            for _ in range(params.max_steps):
                if len(ledger) >= N:
                    break
                stepped = thread_step(z, y, u, oracle, params.step, rng)
                if stepped is None:
                    break
                z, y, u = stepped
                ledger.add(z, y)
                # every countdown-th accepted point seeds a pending thread
                countdown -= 1
                if countdown == 0:
                    pending.append((z, y))
                    countdown = _draw_spawn_gap(rng, params.spawn_rate)

    if len(ledger) < N:  # constant-oracle fallback fill
        ledger.label(rng.uniform((N - len(ledger), d)))

    return ledger.dataset("boundary", rng.seed, {
        "phase_split": uniform_quota,
        "fallback_uniform": fallback,
        "epsilon": params.epsilon,
        "step": params.step,
        "spawn_rate": params.spawn_rate,
        "runs": params.runs,
        "max_threads": params.max_threads,
        "max_steps": params.max_steps,
    })


def jacobian_sampler(
    N: int,
    oracle: Oracle,
    params: JacobianParams | None = None,
    *,
    rng: RandomSource,
    progress=None,
    trace: list | None = None,
) -> SyntheticDataset:
    """Substitute-driven augmentation along the sign of the score gradient.

    Starts from `seeds_per_refit` uniform labelled seeds.  Each refit trains
    a multinomial logistic substitute on everything collected so far, then
    spends it on `rounds` passes that push every retained point z one step
    of lambda*sign(grad_z p_c(z)) with c the oracle label of z, clip to the
    hypercube, and query the oracle at the result.  Offsets therefore have
    componentwise magnitude lambda before clipping, which draws the familiar
    diagonal streaks.  `trace`, when given, collects (source, pre-clip)
    pairs for inspection.
    """
    params = (params or JacobianParams()).resolved(N)
    if N < params.seeds_per_refit:
        raise ValueError(
            f"budget N={N} cannot cover the {params.seeds_per_refit} uniform seeds"
        )
    d = oracle.d
    ledger = SampleLedger(oracle, N, progress)
    ledger.label(rng.uniform((params.seeds_per_refit, d)))

    substitute = None
    refit_attempts = 0
    refits_skipped = 0
    while len(ledger) < N and refit_attempts < params.refits:
        refit_attempts += 1
        pool = ledger.dataset("jacobian-substitute-pool", rng.seed)
        try:
            # the substitute only supplies gradient signs, so a light
            # training budget keeps refits linear in the collected pool
            substitute = train(
                "lr", pool,
                TrainConfig(seed=rng.integers(1 << 62), epochs=150, batch_size=256),
            )
        except TrainingError as exc:
            refits_skipped += 1
            log.warning("substitute refit skipped (%s); reusing previous", exc)
        for _ in range(params.rounds):
            if len(ledger) >= N:
                break
            base_X, base_y = ledger.X, ledger.y
            if substitute is not None and substitute.constant_label is None:
                grads = substitute.input_gradients(base_X, base_y)
            else:
                grads = np.zeros_like(base_X)
            keep = min(len(base_X), N - len(ledger))
            base_X = base_X[:keep]
            signs = np.sign(grads[:keep])
            # degenerate substitute: fall back to a random diagonal, one
            # uniform draw of d per flat row, in row order
            flat = ~signs.any(axis=1)
            signs[flat] = np.where(rng.uniform((int(flat.sum()), d)) < 0.5, -1.0, 1.0)
            pre_clip = base_X + params.step * signs
            if trace is not None:
                trace.extend(zip(base_X, pre_clip))
            ledger.label(np.clip(pre_clip, 0.0, 1.0))

    filled_uniform = len(ledger) < N
    if filled_uniform:  # guard for exhausted refit budgets
        ledger.label(rng.uniform((N - len(ledger), d)))

    return ledger.dataset("jacobian", rng.seed, {
        "refit_attempts": refit_attempts,
        "refits_skipped": refits_skipped,
        "filled_uniform": filled_uniform,
        "seeds_per_refit": params.seeds_per_refit,
        "step": params.step,
        "rounds": params.rounds,
        "refit_cap": params.refits,
    })
