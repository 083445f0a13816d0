"""Decoupled front-end: fetch blocks, RAS, stream predictor, prediction unit."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".fetch_block": ("FetchBlock", "FetchLineRequest", "FetchedInstruction"),
    ".prediction": ("PredictionStats", "PredictionUnit"),
    ".ras": ("ReturnAddressStack",),
    ".stream_predictor": ("StreamPredictor", "StreamPrediction"),
})
