"""Model extensions implementing the paper's stated future work."""

from repro.models.extensions.variable_size import VariableSizeCopyMutate

__all__ = ["VariableSizeCopyMutate"]
