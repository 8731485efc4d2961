# Import treefed before any test module imports numpy, so that its OpenBLAS
# pin (one thread) holds for the whole suite, as it does for the CLI.
import treefed  # noqa: F401
