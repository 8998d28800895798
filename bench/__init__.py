"""The repo's one benchmark: two clocks, five workloads, per-layer
attribution from outside. Run ``python -m bench``; see ``bench/README.md``."""
