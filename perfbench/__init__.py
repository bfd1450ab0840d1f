"""The repository benchmark (see ``DESIGN.md``)."""
