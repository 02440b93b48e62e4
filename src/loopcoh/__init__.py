"""loopcoh: loop-space cohomology of polynomial algebras via bar constructions."""

__version__ = "0.1.0"

CONVENTION_VERSION = 1


class LoopcohError(Exception):
    """Base class of the errors the engine raises on input it refuses or
    bounds it reaches, so that the command line catches them all without
    importing every module."""
