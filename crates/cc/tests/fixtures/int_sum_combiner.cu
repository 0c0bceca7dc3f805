__global__ void gpu_combiner(char * keys, char * values, char * opKey, char * opVal, int * indexArray, int size, int mapKeyLength, int mapValLength, int combKeyLength, int combValLength, int countFP, char * prevWordFP) {
  int gpu_count;
  __shared__ char gpu_prevWord[WARPS_IN_TB][30];
  int gpu_read;
  int gpu_val;
  __shared__ char gpu_word[WARPS_IN_TB][30];
  int laneID, kvsPerThread, warpID, ptr, high, kvCount, index;
  combineSetup(kvsPerThread, &laneID, &warpID, &ptr,
    &high, &kvCount, &index, size);
  gpu_count = countFP;
  for (int i = 0; i < 30; i++) { gpu_prevWord[warpID][i] = prevWordFP[i]; }
  while ((gpu_read = getKV("%s %d", gpu_word, &gpu_val) == 2)) {
    if ((strcmpGPU(gpu_word, gpu_prevWord) == 0)) {
      gpu_count += gpu_val;
    } else {
      if ((gpu_prevWord[0] != '\0')) {
        storeKV("%s\t%d\n", gpu_prevWord, gpu_count);
      }
      strcpyGPU(gpu_prevWord, gpu_word);
      gpu_count = gpu_val;
    }
  }
  if ((gpu_prevWord[0] != '\0')) {
    storeKV("%s\t%d\n", gpu_prevWord, gpu_count);
  }
  finalCount[warpID] = kvCount;
}
