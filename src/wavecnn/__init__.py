"""Wavelet transforms as network layers, plus the surrounding toolkit.

Subpackages by theme:

- :mod:`wavecnn.filterbank` — wavelet coefficient registry
- :mod:`wavecnn.transform` — 1D/2D DWT/IDWT as truncated matrices, evaluated
  tile by tile along their bands, with exact vector-Jacobian products; every
  transform takes a single signal or plane or a stack of them (NCHW)
- :mod:`wavecnn.denoise` — soft-shrinkage wavelet denoising
- :mod:`wavecnn.layers` / :mod:`wavecnn.network` — a small NumPy neural
  network with wavelet down-sampling layers, training, and checkpoints
- :mod:`wavecnn.datasets` — data sets from IDX files and a synthetic task
- :mod:`wavecnn.fileio` — every file layout (IDX, PGM, WTN, WCN) and the
  one path that writes files
- :mod:`wavecnn.robustness` — noise corruptions, corruption-error metrics,
  shift consistency
- :mod:`wavecnn.complexity` — multiply-add accounting
- :mod:`wavecnn.cli` — the ``wavecnn`` command
"""

from . import errors
from .complexity import (MaddsReport, dwt2d_banded_madds, dwt2d_madds,
                         idwt2d_madds, model_madds)
from .datasets import (Dataset, load_dataset, read_idx, save_dataset,
                       synthetic_classification, write_idx)
from .denoise import DenoiseConfig, denoise_image, soft_shrink
from .errors import WaveError
from .fileio import read_pgm, read_tensor, write_pgm, write_tensor
from .filterbank import (Family, WaveletSpec, derive_highpass, get_wavelet,
                         wavelet_names)
from .network import (DOWNSAMPLE_MODES, LayerSpec, Model, ModelConfig,
                      TrainConfig, TrainReport, build_model, evaluate,
                      load_model, mini_config, save_model, train)
from .robustness import (DEFAULT_SEVERITY, NOISE_CORRUPTIONS, ErrorMatrix,
                         RobustnessReport, ShiftTrialConfig, corrupt,
                         corrupt_dataset, corruption_error, error_matrix,
                         mean_ce, robustness_report, shift_consistency,
                         shift_image)
from .transform import (Decomposition2D, dwt1d, dwt1d_vjp, dwt2d, dwt2d_vjp,
                        idwt1d, idwt2d, idwt2d_vjp)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "Decomposition2D", "DenoiseConfig", "DOWNSAMPLE_MODES",
    "DEFAULT_SEVERITY", "ErrorMatrix", "Family", "LayerSpec", "MaddsReport",
    "Model", "ModelConfig", "NOISE_CORRUPTIONS", "RobustnessReport",
    "ShiftTrialConfig", "TrainConfig", "TrainReport", "WaveError",
    "WaveletSpec", "build_model", "corrupt", "corrupt_dataset",
    "corruption_error", "denoise_image", "derive_highpass", "dwt1d",
    "dwt1d_vjp", "dwt2d", "dwt2d_banded_madds", "dwt2d_madds", "dwt2d_vjp",
    "error_matrix", "errors", "evaluate", "get_wavelet", "idwt1d",
    "idwt2d", "idwt2d_madds", "idwt2d_vjp", "load_dataset",
    "load_model", "mean_ce", "mini_config", "model_madds",
    "read_idx", "read_pgm", "read_tensor", "robustness_report",
    "save_dataset", "save_model", "shift_consistency", "shift_image",
    "soft_shrink", "synthetic_classification", "train",
    "wavelet_names", "write_idx", "write_pgm", "write_tensor",
]
