"""Marked Dynkin diagram calculator: cycle dimensions, reductions,
cycle-connectivity and minimal chain lengths on homogeneous flag spaces."""

__version__ = "0.1.0"

from .dynkin import (MAX_RANK, DiagramError, DynkinDiagram, Marking,
                     RankLimitError, SimpleFactor, cartan_matrix, induced_components,
                     parse_diagram_spec, relabel_to_standard, tree_path)
from .rootweyl import (GuardLimitError, RootSystem, diagram_involution_table,
                       generate_roots, weyl_order)
from .geometry import CycleDescriptor, ParabolicPair, cycle_descriptor, dim_flag
from .connectivity import (BoundaryClass, ChainAnalysis, ConsistencyError,
                           ExceptionFlags, LargerAutomorphismCase,
                           ReductionResult, boundary_codim_class,
                           chain_analysis, exception_flags,
                           is_cycle_connected, is_separating, reduction)
from .report import (AnalysisReport, PsiPContext, build_report, render_json, render_text,
                     render_tsv_row, report_to_dict, tsv_header, verify_report)
