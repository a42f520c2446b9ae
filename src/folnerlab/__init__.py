"""folnerlab: exact Folner averaging, lamplighter dynamics, and transport checks."""

__version__ = "0.1.0"
