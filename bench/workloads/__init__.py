"""The benchmark's workloads, by the name ``--workload`` takes."""

from __future__ import annotations

from .joins import JoinSkewXHeight, JoinUniform60k
from .paper_point import PaperPoint
from .serve_mixed import ServeMixed

__all__ = ["WORKLOADS"]

WORKLOADS = {cls.name: cls for cls in
             (PaperPoint, JoinUniform60k, JoinSkewXHeight, ServeMixed)}
