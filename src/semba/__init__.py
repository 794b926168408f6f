"""Dense bundle adjustment with embedding-driven adaptive robust kernels."""

from .evaluation import (LabelSet, SegMetrics, SemanticPointCloud, align_trajectories,
                         assign_labels, ate_rmse, fuse_point_cloud, knn_transfer, seg_metrics,
                         trajectory_ate)
from .features import PcaModel, bilinear_sample, pca_decode
from .geometry import (Intrinsics, Pose, relative_pose, reproject, reprojection_jacobian,
                       se3_exp)
from .graph import Keyframe, KeyframeGraph
from .residuals import FlowObservation, kernel_alphas, prior_terms, total_energy
from .robust import adaptive_alpha, barron_psi, barron_rho, irls_weight
from .solver import NormalEquations, SolverConfig, assemble, retract, solve
from .synthscene import SceneBundle, SceneConfig, gen_scene

__version__ = "0.1.0"
