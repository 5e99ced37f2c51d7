"""paperbench: the repository benchmark (see run.py)."""
