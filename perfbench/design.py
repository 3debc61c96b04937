"""The design path: ``train_sys200`` and ``emulate_sys200``, plus the
layer probes of ``models``/``layers``/``optics``/``autograd`` and ``engine``.

Both workloads use the paper's 200x200 system.  ``train_sys200`` spends
its time in the autograd path (forward, backward, Adam) and never enters
the engine except for its final parity check; ``emulate_sys200`` runs
forward only, through a compiled plan, and never enters autograd.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional

import numpy as np

from common import PARITY_ATOL, Tracer, median, now, time_builds, time_calls
from repro import DONN, DONNConfig, load_digits
from repro.autograd import Adam, Tensor, functional, no_grad
from repro.engine import compile as engine_compile
from repro.engine.plan import (
    FFT,
    IFFT,
    DetectorOperator,
    Intensity,
    Nonlinear,
    PointwiseMul,
    ReadIntensity,
    count_ops,
    emit_ops,
)
from repro.layers.encoding import data_to_cplex

#: The paper's 200x200 prototype (Section 5.1 defaults: 532 nm, 36 um
#: units, 0.3 m hops).  Model weights are part of the system under test,
#: so their seed is fixed; only the inputs follow ``--seed``.
TRAIN_CONFIG = DONNConfig(sys_size=200, num_layers=3, seed=1)
EMULATE_CONFIG = DONNConfig(sys_size=200, num_layers=5, seed=1)
TRAIN_BATCH = 32
TRAIN_LR = 0.5
TRAIN_POOL = 256
EMULATE_CHUNK = 64
EMULATE_POOL = 128

#: Plan op type -> the ``engine.op.<key>_ms`` metric it is timed under.
OP_KEYS = {
    FFT: "fft",
    IFFT: "ifft",
    PointwiseMul: "mul",
    Nonlinear: "nonlinear",
    Intensity: "intensity",
    ReadIntensity: "readout",
    DetectorOperator: "detector_operator",
}


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def digits(seed: int, count: int):
    images, labels, _, _ = load_digits(num_train=count, num_test=0, size=200, seed=seed)
    return images, labels


# ---------------------------------------------------------------------- #
# train_sys200
# ---------------------------------------------------------------------- #
def build_trainer():
    """What ``train_sys200`` sets up: the DONN (which precomputes its
    propagator kernels) and its Adam optimizer."""
    model = DONN(TRAIN_CONFIG)
    return model, Adam(model.parameters(), lr=TRAIN_LR)


def train_step(model, optimizer, images, labels, tracer: Optional[Tracer] = None) -> float:
    """One Adam step on one batch (the sequence ``repro.train.Trainer`` runs)."""
    optimizer.zero_grad()
    with _span(tracer, "autograd.forward"):
        logits = model(images)
    with _span(tracer, "autograd.loss"):
        target = Tensor(functional.one_hot(labels, TRAIN_CONFIG.num_classes))
        loss = functional.softmax_mse_loss(logits, target)
    with _span(tracer, "autograd.backward"):
        loss.backward()
    with _span(tracer, "autograd.optim_step"):
        optimizer.step()
    return float(loss.data.real)


class _TracedPropagator:
    """Stand-in for a propagator that records each call as a span."""

    def __init__(self, inner, tracer: Tracer):
        self._inner, self._tracer = inner, tracer

    def __call__(self, field):
        with self._tracer.span("optics.propagate"):
            return self._inner(field)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextlib.contextmanager
def instrument_donn(model, tracer: Optional[Tracer]):
    """Record spans around a DONN's layer calls; undone on exit.

    The spans sit on the model's public call points (each layer's
    ``forward``, each propagator call, the detector), wrapped from
    outside the program so its code is unchanged.
    """
    if tracer is None:
        yield
        return
    layers = list(model.diffractive_layers)
    propagators = [layer.propagator for layer in layers]
    final = model.final_propagator
    for layer in layers:
        layer.forward = tracer.wrap(layer.forward, "layers.diffractive")
        layer.propagator = _TracedPropagator(layer.propagator, tracer)
    model.final_propagator = _TracedPropagator(final, tracer)
    model.detector.forward = tracer.wrap(model.detector.forward, "layers.detector")
    try:
        yield
    finally:
        for layer, propagator in zip(layers, propagators):
            del layer.forward  # the instance attribute; the class method shows again
            layer.propagator = propagator
        model.final_propagator = final
        del model.detector.forward


def train_loop(model, optimizer, images, labels, seconds: float, rng, tracer: Optional[Tracer] = None):
    """Train for ``seconds``; returns (per-step seconds, losses)."""
    steps: List[float] = []
    losses: List[float] = []
    order = np.empty(0, dtype=int)
    deadline = now() + seconds
    with instrument_donn(model, tracer):
        while now() < deadline or len(steps) < 3:
            if len(order) < TRAIN_BATCH:
                order = np.concatenate([order, rng.permutation(len(images))])
            chosen, order = order[:TRAIN_BATCH], order[TRAIN_BATCH:]
            start = now()
            with _span(tracer, "train.step"):
                losses.append(train_step(model, optimizer, images[chosen], labels[chosen], tracer))
            steps.append(now() - start)
    return steps, losses


def train_parity(model, images) -> bool:
    """The trained model's ``compile()`` output equals its autograd forward."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            expected = np.asarray(model(images).data.real)
    finally:
        model.train(was_training)
    got = engine_compile(model).run(images)
    return bool(np.allclose(got, expected, rtol=0.0, atol=PARITY_ATOL))


# ---------------------------------------------------------------------- #
# emulate_sys200
# ---------------------------------------------------------------------- #
def emulate_model() -> DONN:
    """A 5-layer sys-200 DONN with a saturable absorber after every layer:
    the nonlinearity keeps the cascade from collapsing, so the compiled
    plan stays in FFT form."""
    return DONN(EMULATE_CONFIG, nonlinearity="saturable")


def emulate_loop(session, images, seconds: float, rng, tracer: Optional[Tracer] = None):
    """Emulate 64-image chunks for ``seconds``; returns (per-chunk seconds,
    [(chunk image indices, outputs), ...])."""
    chunks: List[float] = []
    outputs = []
    deadline = now() + seconds
    while now() < deadline or len(chunks) < 3:
        chosen = rng.choice(len(images), size=EMULATE_CHUNK, replace=False)
        batch = images[chosen]
        start = now()
        with _span(tracer, "emulate.chunk"), _span(tracer, "engine.run"):
            out = session.run(batch)
        chunks.append(now() - start)
        outputs.append((chosen, out))
    return chunks, outputs


def emulate_parity(model, images, outputs, rng) -> bool:
    """A sampled chunk matches an ``optimize="none"`` session."""
    chosen, got = outputs[int(rng.integers(len(outputs)))]
    reference = engine_compile(model, optimize="none", batch_size=EMULATE_CHUNK)
    return bool(np.allclose(got, reference.run(images[chosen]), rtol=0.0, atol=PARITY_ATOL))


# ---------------------------------------------------------------------- #
# Layer probes
# ---------------------------------------------------------------------- #
def _encode(op, plan, images: np.ndarray) -> np.ndarray:
    """The array a plan's ``Encode`` op hands to the rest of the branch."""
    if op.mode == "amplitude":
        out = (np.sqrt(np.clip(images, 0.0, None)) * op.amplitude_factor).astype(plan.rdtype)
        return out * plan.rdtype.type(op.scale) if op.scale != 1.0 else out
    field = np.asarray(data_to_cplex(images, grid=plan.grid, amplitude_factor=op.amplitude_factor).data)
    field = field.astype(plan.cdtype)
    return (field * op.scale).astype(plan.cdtype) if op.scale != 1.0 else field


def _operand_bytes(op) -> int:
    """Bytes of the cached arrays an op reads besides its input."""
    if isinstance(op, PointwiseMul):
        return op.values.nbytes
    if isinstance(op, ReadIntensity):
        return op.matrix.nbytes
    if isinstance(op, DetectorOperator):
        return op.op_real.nbytes + op.op_imag.nbytes
    return 0


def op_split(session, images: np.ndarray, reps: int):
    """Time each op of ``session.plan`` alone on its real intermediate.

    Every op is emitted by itself with ``emit_ops`` and fed the array the
    op before it produced, so each sees the data it sees inside the
    compiled program.  Returns (ms per op kind per call of the whole
    plan, median over ``reps`` passes; computed bytes moved per image;
    whether the op-by-op output equals ``session.run``).
    """
    plan = session.plan
    (branch,) = plan.branches
    ops = list(branch.ops[1:]) + list(plan.tail)
    fns = [emit_ops([op], session.fft, plan.cdtype) for op in ops]
    encoded = _encode(branch.ops[0], plan, images)
    passes: List[Dict[str, float]] = []
    moved = 0
    for _ in range(reps):
        field = encoded.copy()
        totals: Dict[str, float] = {}
        moved = 0
        for op, fn in zip(ops, fns):
            before = field.nbytes
            start = now()
            field = fn(field)
            elapsed = now() - start
            key = OP_KEYS.get(type(op), type(op).__name__.lower())
            totals[key] = totals.get(key, 0.0) + elapsed * 1000.0
            moved += before + field.nbytes + _operand_bytes(op)
        passes.append(totals)
    split = {key: median([p[key] for p in passes]) for key in passes[0]}
    parity = bool(np.allclose(field, session.run(images), rtol=0.0, atol=PARITY_ATOL))
    return split, moved / len(images), parity


def train_probes(seed: int) -> Dict[str, float]:
    images, labels = digits(seed, TRAIN_BATCH)
    build_times, (model, optimizer) = time_builds(build_trainer, 3)
    train_step(model, optimizer, images, labels)  # warm: first-touch allocations
    forward, backward, step = [], [], []
    for _ in range(3):
        tracer = Tracer("probe")
        train_step(model, optimizer, images, labels, tracer)
        by_name = {span.name: span.duration for span in tracer.spans}
        forward.append(by_name["autograd.forward"])
        backward.append(by_name["autograd.backward"])
        step.append(by_name["autograd.optim_step"])
    layer = model.diffractive_layers[0]
    field = model.encode(images)
    layer_ms = median(time_calls(lambda: layer(field), 5)) * 1000.0
    return {
        "models.build_s": median(build_times),
        "autograd.forward_ms": median(forward) * 1000.0,
        "autograd.backward_ms": median(backward) * 1000.0,
        "autograd.optim_step_ms": median(step) * 1000.0,
        "layers.diffractive_forward_ms": layer_ms,
    }


def engine_probes(seed: int, serve_session, serve_image: np.ndarray) -> Dict[str, float]:
    """Engine metrics: the FFT-form emulate plan at B=64, and the collapsed
    serve plan at B=1 (the batch size serving sees)."""
    images, _ = digits(seed, EMULATE_CHUNK)
    model = emulate_model()
    compile_times, session = time_builds(lambda: engine_compile(model, batch_size=EMULATE_CHUNK), 3)
    session.run(images)  # warm FFT plans
    run_b64 = median(time_calls(lambda: session.run(images), 3))
    split, bytes_per_image, parity = op_split(session, images, reps=2)
    one = serve_image[None]
    serve_session.run(one)
    run_b1 = median(time_calls(lambda: serve_session.run(one), 200))
    serve_split, _, serve_parity = op_split(serve_session, one, reps=200)
    counts = count_ops(session.plan)
    metrics = {
        "engine.compile_s": median(compile_times),
        "engine.run_b64_ms": run_b64 * 1000.0,
        "engine.run_b1_ms": run_b1 * 1000.0,
        "engine.fft_calls_per_image": float(counts.get("FFT", 0) + counts.get("IFFT", 0)),
        "engine.bytes_per_image": float(bytes_per_image),
        "engine.op.detector_operator_ms": serve_split.get("detector_operator", 0.0),
    }
    for key in ("fft", "ifft", "mul", "nonlinear", "intensity", "readout"):
        metrics[f"engine.op.{key}_ms"] = split.get(key, 0.0)
    if not (parity and serve_parity):
        raise AssertionError("op-by-op plan execution disagrees with session.run")
    return metrics
