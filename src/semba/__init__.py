"""Dense bundle adjustment with embedding-driven adaptive robust kernels."""

from .evaluation import (LabelSet, SegMetrics, SemanticPointCloud, align_trajectories,
                         assign_labels, ate_rmse, fuse_point_cloud, knn_transfer, seg_metrics,
                         trajectory_ate)
from .features import PcaModel, bilinear_sample, pca_decode, pca_encode, pca_fit
from .geometry import (Intrinsics, Pose, relative_pose, reproject, reprojection_jacobian,
                       se3_exp, se3_log)
from .graph import Keyframe, KeyframeGraph, plan_edges
from .residuals import FlowObservation, RegConfig, disparity_reg_residual, total_energy
from .robust import KernelConfig, adaptive_alpha, barron_psi, barron_rho, irls_weight
from .solver import NormalEquations, SolverConfig, assemble, kernel_alphas, retract, solve
from .synthscene import SceneBundle, SceneConfig, gen_scene, inject_dynamics, perturb_init

__version__ = "0.1.0"
