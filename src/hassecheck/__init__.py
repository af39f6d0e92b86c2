"""Local-global obstruction checks for prime-degree isogenies.

Two halves: exact finite-group machinery (is a projective matrix group
"Hasse": every element fixes a point, no common fixed point), and a newform
pipeline that classifies mod-l projective images from Fourier coefficient
data and decides the block-sum sufficiency conditions for abelian surfaces.

The package root exports ``__version__`` only; import everything else from
its module (``hassecheck.hasse.is_hasse``, ``hassecheck.pipeline.scan``), so
a group command never loads the newform half.
"""

__version__ = "0.1.0"
