# Generated by genkernels. Do not edit by hand.
"""Dispatch table over the generated batched DGEMM kernels."""

from .bbdgemm_ColMajor_2_2_2_cis import bbdgemm_ColMajor_2_2_2_cis
from .bbdgemm_ColMajor_10_9_9_csi import bbdgemm_ColMajor_10_9_9_csi
from .bbdgemm_ColMajor_20_9_10_csi import bbdgemm_ColMajor_20_9_10_csi
from .bbdgemm_ColMajor_20_9_10_cis import bbdgemm_ColMajor_20_9_10_cis
from .bbdgemm_ColMajor_10_9_9_sci import bbdgemm_ColMajor_10_9_9_sci


KERNELS = {
    "bbdgemm_ColMajor_2_2_2_cis": bbdgemm_ColMajor_2_2_2_cis,
    "bbdgemm_ColMajor_10_9_9_csi": bbdgemm_ColMajor_10_9_9_csi,
    "bbdgemm_ColMajor_20_9_10_csi": bbdgemm_ColMajor_20_9_10_csi,
    "bbdgemm_ColMajor_20_9_10_cis": bbdgemm_ColMajor_20_9_10_cis,
    "bbdgemm_ColMajor_10_9_9_sci": bbdgemm_ColMajor_10_9_9_sci,
}
