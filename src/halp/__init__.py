"""Distributed CNN inference across one host and two secondary edge nodes.

The package splits feature maps along the height dimension: two secondary
nodes compute the top and bottom segments while the host computes a small
overlap band around the boundary, exchanging boundary rows layer by layer
so the distributed result is exactly the monolithic result.
"""

__version__ = "0.1.0"
