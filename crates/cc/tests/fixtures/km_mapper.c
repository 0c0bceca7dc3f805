int main()
{
  double profiles[48];
  char tok[16], key[8], *line;
  size_t nbytes = 100000;
  int read, consumed, offset, c, best, n, sum, r;
  double d, diff, bestD;
  for (c = 0; c < 48; c++) {
    profiles[c] = 1.0 + 4.0 * c / 47.0;
  }
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(key) value(sum) \
    keylength(8) vallength(16) kvpairs(1) texture(profiles)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    offset = 0;
    n = -1;  // first token is the movie id
    sum = 0;
    bestD = 1.0e30;
    best = 0;
    // First pass: running sum + count (single-profile distances are
    // computed from aggregates to keep the interpreted kernel fast).
    while( (consumed = getWord(line, offset, tok, read, 16)) != -1) {
      if (n >= 0) {
        r = atoi(tok);
        sum += r;
      }
      n++;
      offset += consumed;
    }
    if (n > 0) {
      for (c = 0; c < 48; c++) {
        diff = ((double)sum / n) - profiles[c];
        d = diff * diff;
        if (d < bestD) { bestD = d; best = c; }
      }
      key[0] = 'c';
      key[1] = '0' + best / 10;
      key[2] = '0' + best % 10;
      key[3] = '\0';
      printf("%s\t%d %d\n", key, sum, n);
    }
  }
  free(line);
  return 0;
}
