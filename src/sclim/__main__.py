"""`python -m sclim`: the command-line front end."""

from .cli import entrypoint

entrypoint()
