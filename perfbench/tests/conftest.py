import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from checkout import pin_blas, use_checkout_sources  # noqa: E402

pin_blas()
use_checkout_sources()
