"""Witness-complex persistent-homology features for graphs.

Pipeline: landmark selection by degree -> geodesic rows from landmarks ->
lazy-witness (or Vietoris-Rips) filtration -> persistence diagram ->
persistence image / topological loss, plus an edge-flip perturbation harness
that measures how much the features drift under a given flip budget.
"""

from .complexes import (Filtration, is_weak_witness, sandwich_check,
                        vr_filtration, witness_filtration)
from .encodings import (NodeFeatureMatrix, TopoLossConfig, global_diagram,
                        global_encoding, local_cell_diagrams, local_encoding,
                        topo_loss, topo_loss_grad)
from .graph import (UNREACHABLE, DistanceMatrix, Graph, GraphParseError,
                    ValidationError, adjacency_l1_distance, all_pairs,
                    build_knn_graph, connected_components, diameter, geodesics,
                    largest_connected_component, load_edge_list)
from .images import (PIConfig, PersistenceImage, default_config,
                     persistence_image, resolve_config, stability_constant)
from .landmarks import Cover, LandmarkSet, build_cover, select_landmarks
from .persistence import (REDUCTION, UNION_FIND, PersistenceDiagram,
                          compute_persistence, diagram_distance)
from .robustness import (LANDMARK_TARGETED, RANDOM, PerturbSpec,
                         StabilityReport, perturb, stability_sweep)

__version__ = "0.1.0"

__all__ = [
    "UNREACHABLE", "Graph", "DistanceMatrix", "GraphParseError",
    "ValidationError", "load_edge_list", "build_knn_graph", "geodesics",
    "all_pairs", "diameter", "connected_components",
    "largest_connected_component", "adjacency_l1_distance",
    "LandmarkSet", "Cover", "select_landmarks", "build_cover",
    "Filtration", "vr_filtration", "witness_filtration",
    "is_weak_witness", "sandwich_check",
    "PersistenceDiagram", "compute_persistence", "diagram_distance",
    "UNION_FIND", "REDUCTION",
    "PIConfig", "PersistenceImage", "persistence_image", "stability_constant",
    "default_config", "resolve_config",
    "NodeFeatureMatrix", "TopoLossConfig", "local_encoding", "global_encoding",
    "local_cell_diagrams", "global_diagram", "topo_loss", "topo_loss_grad",
    "PerturbSpec", "StabilityReport", "perturb", "stability_sweep",
    "RANDOM", "LANDMARK_TARGETED",
    "__version__",
]
