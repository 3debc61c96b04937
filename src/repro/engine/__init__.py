"""Inference engine: autograd-free batched serving of trained DONNs.

Public surface:

* :func:`compile` -- the one front door: lower a trained ``DONN`` /
  ``MultiChannelDONN`` / ``SegmentationDONN`` (or a
  :class:`SessionSpec`) to the :mod:`~repro.engine.plan` IR, run the
  :mod:`~repro.engine.passes` optimizations (fusion, FFT-pair
  cancellation, dead-kernel elimination, cascade collapse), and emit an
  :class:`InferenceSession`.
* :class:`InferenceSession` -- the thin executor over the emitted plan
  (batching, streaming, ``plan_summary()`` introspection).  It has no
  public constructor: :func:`compile` is the only way to build one.
* :func:`get_fft_backend` / :func:`available_backends` -- the FFT
  dispatch layer (single-threaded scipy when installed, numpy fallback
  otherwise), re-exported from :mod:`repro.fft`, which training shares.
  Threads come from the executor instead: a compiled program runs its
  field chain over cache-sized image tiles spread over the usable cores
  (see :class:`~repro.engine.plan.CompiledProgram`).
* :class:`SessionSpec` -- picklable recipe (``session.to_spec()`` /
  ``spec.build()``) that lets ``repro.cluster`` rebuild the session in a
  spawned worker process.
* :mod:`repro.engine.plan` / :mod:`repro.engine.passes` -- the plan IR
  (``lower`` / ``emit`` / ``format_plan``) and its optimization passes
  (``optimize_plan``), for tooling such as ``tools/dump_plan.py``.
"""

from repro.fft import (
    NumpyFFTBackend,
    ScipyFFTBackend,
    available_backends,
    get_fft_backend,
)
from repro.engine.passes import OPTIMIZE_LEVELS, optimize_plan
from repro.engine.plan import COMPILABLE_MODELS, Plan, count_ops, emit, format_plan, lower
from repro.engine.session import (
    COMPLEX64_LOGIT_ATOL,
    InferenceSession,
    compile,
)
from repro.engine.spec import SessionSpec

__all__ = [
    "compile",
    "InferenceSession",
    "SessionSpec",
    "COMPLEX64_LOGIT_ATOL",
    "OPTIMIZE_LEVELS",
    "COMPILABLE_MODELS",
    "Plan",
    "lower",
    "emit",
    "count_ops",
    "format_plan",
    "optimize_plan",
    "available_backends",
    "get_fft_backend",
    "NumpyFFTBackend",
    "ScipyFFTBackend",
]
