"""The repository benchmark (see ``README.md`` here and ``run.py``)."""
