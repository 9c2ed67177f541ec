"""Azure-Functions-like trace synthesis and sampling.

Replay lives in :mod:`repro.sim.sharded`, which takes the eager
:class:`AzureTrace` and the lazy :class:`StreamedTrace` alike.
"""

from .azure import AzureTrace, Invocation, TraceFunction, generate_trace
from .azure import generate_functions
from .sampler import sample_functions, sample_trace
from .stream import StreamedTrace, streamed_trace

__all__ = [
    "StreamedTrace",
    "streamed_trace",
    "AzureTrace",
    "Invocation",
    "TraceFunction",
    "generate_trace",
    "generate_functions",
    "sample_functions",
    "sample_trace",
]
