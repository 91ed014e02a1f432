"""Speaker-verification toolkit: features, augmentation, a numpy ResNet
embedding network, margin/prototypical losses with analytic gradients,
cosine trial scoring, and EER/MinDCF evaluation.

Import names from the submodules (`svkit.audio`, `svkit.metrics`, ...);
the package itself exposes only `__version__`."""

__version__ = "0.1.0"
