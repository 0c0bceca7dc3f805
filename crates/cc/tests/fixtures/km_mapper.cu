__global__ void gpu_mapper(char * ip, int ipSize, int * recordLocator, char * devKey, char * devVal, int storesPerThread, int * devKvCount, int keyLength, int valLength, int * indexArray, int numReducers, double * profiles) {
  int gpu_best;
  double gpu_bestD;
  int gpu_c;
  int gpu_consumed;
  double gpu_d;
  double gpu_diff;
  char gpu_key[8];
  char * gpu_line;
  int gpu_n;
  int gpu_nbytes;
  int gpu_offset;
  int gpu_r;
  int gpu_read;
  int gpu_sum;
  char gpu_tok[16];
  int index, tid, start;
  __shared__ unsigned int recordIndex;
  mapSetup(&start, &tid, &index, ipSize, storesPerThread,
    ip, devKvCount, numReducers, &recordIndex);
  while ((gpu_read = getRecord(&gpu_line, &gpu_nbytes, stdin) != -1)) {
    gpu_offset = 0;
    gpu_n = -1;
    gpu_sum = 0;
    gpu_bestD = 1000000000000000000000000000000;
    gpu_best = 0;
    while ((gpu_consumed = getWord(gpu_line, gpu_offset, gpu_tok, gpu_read, 16) != -1)) {
      if ((gpu_n >= 0)) {
        gpu_r = atoi(gpu_tok);
        gpu_sum += gpu_r;
      }
      gpu_n++;
      gpu_offset += gpu_consumed;
    }
    if ((gpu_n > 0)) {
      for (gpu_c = 0; (gpu_c < 48); gpu_c++) {
        gpu_diff = (((double)gpu_sum / gpu_n) - profiles[gpu_c]);
        gpu_d = (gpu_diff * gpu_diff);
        if ((gpu_d < gpu_bestD)) {
          gpu_bestD = gpu_d;
          gpu_best = gpu_c;
        }
      }
      gpu_key[0] = 'c';
      gpu_key[1] = ('0' + (gpu_best / 10));
      gpu_key[2] = ('0' + (gpu_best % 10));
      gpu_key[3] = '\0';
      emitKV("%s\t%d %d\n", gpu_key, gpu_sum, gpu_n);
    }
  }
  mapFinish(index, storesPerThread, devKey, keyLength,
    indexArray, numReducers, devKvCount);
}
