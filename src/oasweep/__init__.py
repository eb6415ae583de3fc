"""Opti-acoustic plane-sweep depth estimation.

Fuses a forward-looking sonar scan with a camera image by hypothesizing a
family of inclined planes, warping sonar features onto each, scoring the
matches in a cost volume, and regressing a dense metric depth map. Ships
with a synthetic opti-acoustic simulator, a preprocessing pipeline, an
evaluation harness, and a CLI binding it all together.
"""

__version__ = "0.1.0"
