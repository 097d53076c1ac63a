import gc

gc.disable()  # before the package is imported: see the cli docstring

from .cli import run  # noqa: E402

run()
