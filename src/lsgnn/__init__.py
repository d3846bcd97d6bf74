"""Graph learning with locally similarity-guided channel fusion."""

__version__ = "0.1.0"
