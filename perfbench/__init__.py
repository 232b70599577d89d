"""The repository benchmark; ``perfbench/run.py`` is its command."""
