"""Module entry point: ``python -m baryzeros`` runs ``cli.run``, the same
process entry as the ``baryzeros`` script."""

from .cli import run

if __name__ == "__main__":
    run()
