__global__ void gpu_mapper(char * ip, int ipSize, int * recordLocator, char * devKey, char * devVal, int storesPerThread, int * devKvCount, int keyLength, int valLength, int * indexArray, int numReducers) {
  char * gpu_line;
  int gpu_linePtr;
  int gpu_nbytes;
  int gpu_offset;
  int gpu_one;
  int gpu_read;
  char gpu_word[30];
  int index, tid, start;
  __shared__ unsigned int recordIndex;
  mapSetup(&start, &tid, &index, ipSize, storesPerThread,
    ip, devKvCount, numReducers, &recordIndex);
  while ((gpu_read = getRecord(&gpu_line, &gpu_nbytes, stdin) != -1)) {
    gpu_linePtr = 0;
    gpu_offset = 0;
    gpu_one = 1;
    while ((gpu_linePtr = getWord(gpu_line, gpu_offset, gpu_word, gpu_read, 30) != -1)) {
      emitKV("%s\t%d\n", gpu_word, gpu_one);
      gpu_offset += gpu_linePtr;
    }
  }
  mapFinish(index, storesPerThread, devKey, keyLength,
    indexArray, numReducers, devKvCount);
}
