"""Structure-aware exemplar retrieval for semantic-parsing prompts."""

__version__ = "0.1.0"
