"""Marked Dynkin diagram calculator: cycle dimensions, reductions,
cycle-connectivity and minimal chain lengths on homogeneous flag spaces."""

__version__ = "0.1.0"

from .dynkin import (MAX_RANK, DiagramError, DynkinDiagram, Marking,
                     RankLimitError, SimpleFactor, cartan_matrix,
                     diagram_involution_table, induced_components,
                     parse_diagram_spec, relabel_to_standard, tree_path)
from .rootweyl import (GuardLimitError, RootSystem, classical_weyl_order,
                       generate_roots, resolve_weyl_limit, weyl_order,
                       weyl_order_estimate)
from .geometry import (CycleDescriptor, ParabolicPair, TowerDims,
                       cycle_descriptor, dim_flag, dual_cycle_dim)
from .connectivity import (BoundaryClass, ChainAnalysis, ConsistencyError,
                           ExceptionFlags, LargerAutomorphismCase,
                           ReductionResult, boundary_codim_class,
                           chain_analysis, connectivity_quotient,
                           exception_flags, exception_notes,
                           is_cycle_connected, is_separating, levi_generators,
                           reduction)
from .report import (AnalysisReport, build_report, render_json, render_text,
                     render_tsv_row, report_to_dict, tsv_header, verify_report)
