"""LiDAR range-image edge detection toolkit.

Synthetic labeled dataset generation, classical detectors (Sobel,
Roberts, Canny), a from-scratch nested multi-scale CNN with side
outputs and weighted fusion, and a common evaluation harness.
"""

from .lidar import (LidarConfig, Scene, ScenePolicy, generate_dataset,
                    ground_truth_edges, range_to_intensity, render_scene,
                    tof_to_distance)
from .classical import canny, roberts, sobel, threshold_magnitude
from .imaging import convolve2d, gaussian_filter
from .models import (NestedArch, PatchArch, forward_nested, forward_patch,
                     init_nested, init_patch)
from .training import (TrainConfig, grad_check, split_dataset, total_loss,
                       train_nested, train_patch)
from .evaluation import confusion, metrics, roc
from .modelio import load_model, save_model

__version__ = "0.1.0"
