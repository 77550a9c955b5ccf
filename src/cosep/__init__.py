"""Self-supervised audio-visual co-segmentation at desk scale.

Train an image analysis network and an audio analysis network jointly on
synthetic mixtures, disentangle their shared channels with a
sigmoid-to-annealed-softmax schedule, assign semantic categories to
channels by linear sum assignment, then run image-only segmentation and
audio-only source separation.
"""

__version__ = "0.1.0"

from . import avnets, checkpoint, disentangle, dsp, metrics, nmf, tensor, toyworld, trainer, workers  # noqa: F401
from .tensor import Tensor  # noqa: F401
