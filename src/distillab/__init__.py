"""distillab: a desk-scale laboratory for position-weighted on-policy
distillation, branch-viability probing, and uncertainty-score baselines.

The package root exports nothing but `__version__`; import from the modules
(`distillab.objectives`, `distillab.trainer`, `distillab.world`, ...)."""

__version__ = "0.1.0"
