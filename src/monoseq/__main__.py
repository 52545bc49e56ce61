"""Run the command-line interface: ``python -m monoseq ...``."""

from .cli import main

main()
