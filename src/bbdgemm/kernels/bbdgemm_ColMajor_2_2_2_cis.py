# Generated by genkernels. Do not edit by hand.

from bbdgemm.vectorize import vectorize_batch_loop


@vectorize_batch_loop("bbdgemm_ColMajor_2_2_2_cis")
def bbdgemm_ColMajor_2_2_2_cis(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC):
    vA_0_0 = A[(0*lda+0)]
    vA_0_1 = A[(1*lda+0)]
    vA_1_0 = A[(0*lda+1)]
    vA_1_1 = A[(1*lda+1)]
    for e in range(E):
        vB_0_0 = B[e][(0*ldb+0)]
        vB_0_1 = B[e][(1*ldb+0)]
        vB_1_0 = B[e][(0*ldb+1)]
        vB_1_1 = B[e][(1*ldb+1)]
        rC_0_0 = 0.0
        rC_0_0 = vA_0_0 * vB_0_0 + rC_0_0
        rC_0_0 = vA_0_1 * vB_1_0 + rC_0_0
        rC_0_0 = rC_0_0 * alpha
        rC_1_0 = 0.0
        rC_1_0 = vA_1_0 * vB_0_0 + rC_1_0
        rC_1_0 = vA_1_1 * vB_1_0 + rC_1_0
        rC_1_0 = rC_1_0 * alpha
        rC_0_1 = 0.0
        rC_0_1 = vA_0_0 * vB_0_1 + rC_0_1
        rC_0_1 = vA_0_1 * vB_1_1 + rC_0_1
        rC_0_1 = rC_0_1 * alpha
        rC_1_1 = 0.0
        rC_1_1 = vA_1_0 * vB_0_1 + rC_1_1
        rC_1_1 = vA_1_1 * vB_1_1 + rC_1_1
        rC_1_1 = rC_1_1 * alpha
        vC_0_0 = C[e*spanC+(0*ldc+0)] if beta != 0.0 else 0.0
        rC_0_0 = vC_0_0 * beta + rC_0_0
        C[e*spanC+(0*ldc+0)] = rC_0_0
        vC_1_0 = C[e*spanC+(0*ldc+1)] if beta != 0.0 else 0.0
        rC_1_0 = vC_1_0 * beta + rC_1_0
        C[e*spanC+(0*ldc+1)] = rC_1_0
        vC_0_1 = C[e*spanC+(1*ldc+0)] if beta != 0.0 else 0.0
        rC_0_1 = vC_0_1 * beta + rC_0_1
        C[e*spanC+(1*ldc+0)] = rC_0_1
        vC_1_1 = C[e*spanC+(1*ldc+1)] if beta != 0.0 else 0.0
        rC_1_1 = vC_1_1 * beta + rC_1_1
        C[e*spanC+(1*ldc+1)] = rC_1_1
