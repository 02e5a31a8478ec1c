"""Source-free domain generalization over a frozen joint vision-language encoder.

Trains a style-removal gate and an angular-margin classifier purely on
text prompts with per-epoch style refresh, then transplants the trained
heads onto the image encoder and fuses one model per prompt template.
"""

from .core import PromptTemplate, TaskDefinition, cosine_similarity, l2_normalize, softmax
from .backends import EncoderBackend, ToyBackend, ToyBackendSpec
from .losses import ArcFaceConfig, ClassifierHead
from .styles import StyleGenConfig
from .trainer import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint, train_one_model
from .evaluation import EnsembleBundle, ensemble_predict, evaluate, zeroshot_predict

__version__ = "0.1.0"

__all__ = [
    "ArcFaceConfig",
    "Checkpoint",
    "ClassifierHead",
    "EncoderBackend",
    "EnsembleBundle",
    "PromptTemplate",
    "StyleGenConfig",
    "TaskDefinition",
    "ToyBackend",
    "ToyBackendSpec",
    "TrainConfig",
    "cosine_similarity",
    "ensemble_predict",
    "evaluate",
    "l2_normalize",
    "load_checkpoint",
    "save_checkpoint",
    "softmax",
    "train_one_model",
    "zeroshot_predict",
]
