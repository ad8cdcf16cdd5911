// A kernel that exists only when compiled for compute capability 2.0 or
// newer, the way the OpenCV row filter guards its Fermi path (§2.6).
#ifndef N
#define N n
#endif

#if __CUDA_ARCH__ >= 200
__global__ void fermi_scale(float* y, float a, int n) {
    int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
    if (i < N) {
        y[i] = a * y[i];
    }
}
#endif
