"""``python -m lpbdeg``: the command line of :mod:`lpbdeg.cli`."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
