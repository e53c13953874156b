"""Token-graph vulnerability analysis for C/C++ functions.

The pipeline: a deterministic lexer turns a function into a 512-token
stream with exact line provenance; four families of typed edges over the
stream form a semantic graph, kept as its normalized operator; a
residual graph-convolutional model with two heads classifies the
weakness and regresses the vulnerable line range; occlusion attribution
over the trained model selects the root-cause line before the predicted
range.
"""

__version__ = "0.1.0"

from .corpus import (FunctionRecord, DatasetSplit, load_dataset, save_dataset,
                     split)
from .errors import VulnGraphError
from .lexer import Token, TokenStream, Vocabulary, build_vocab, encode, tokenize
from .model import ModelConfig, VulnModel, denormalize_lines, fuse
from .objectives import (FocalConfig, MetricsReport, classification_metrics,
                         focal_loss, iou_1d, mse_loss)
from .runfiles import TrainConfig, load_checkpoint, save_checkpoint
from .semgraph import build_graph
from .trainer import evaluate, sweep_ensemble, train
from .attribution import (Attribution, RootCause, attribute_tokens,
                          select_root_cause)
from .scanner import AnalysisReport, analyze, extract_functions, scan

__all__ = [
    "__version__", "AnalysisReport", "Attribution", "DatasetSplit",
    "FocalConfig", "FunctionRecord", "MetricsReport", "ModelConfig",
    "RootCause", "Token", "TokenStream", "TrainConfig",
    "VulnGraphError", "VulnModel", "Vocabulary", "analyze", "attribute_tokens",
    "build_graph", "build_vocab", "classification_metrics",
    "denormalize_lines", "encode", "evaluate", "extract_functions",
    "focal_loss", "fuse", "iou_1d", "load_checkpoint", "load_dataset",
    "mse_loss", "save_checkpoint", "save_dataset", "scan", "select_root_cause",
    "split", "sweep_ensemble", "tokenize", "train",
]
