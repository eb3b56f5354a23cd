"""Gluing bijections, enumeration and exact counting for tree-decorated
planar maps."""

__version__ = "0.1.0"

from .maps import BoundaryMap, PlanarMap, build_map  # noqa: F401
from .trees import DyckPath, catalan, contour_to_tree, tree_to_contour  # noqa: F401
from .bijection import (TreeDecoratedMap, glue, glue_forest,  # noqa: F401
                        glue_partial, unglue)
from .bubbles import (BubbleMap, Circuit, detect_wicked,  # noqa: F401
                      glue_bridgeless, unglue_bubble)
from .enumeration import (Catalog, enumerate_boundary_maps,  # noqa: F401
                          enumerate_maps, get_catalog)
from .counting import (count_bubble, count_forest,  # noqa: F401
                       count_spanning, count_spanning_forest,
                       count_tree_decorated, mullin_count)
from .series import series_B, series_B1, series_S  # noqa: F401
from .sampler import (SampleSpec, export_decorated,  # noqa: F401
                      sample_tree_decorated, tree_marginal_test)
