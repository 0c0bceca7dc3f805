double normCdf(double x) {
  return 0.5 * (1.0 + erf(x / 1.4142135623730951));
}
int main()
{
  char tok[24], key[16], *line;
  size_t nbytes = 10000;
  int read, consumed, offset, n, i;
  double in[6], acc, v, d1, d2, sq, price;
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(key) value(price) \
    keylength(16) vallength(24) kvpairs(1)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    offset = 0;
    n = 0;
    while( (consumed = getTok(line, offset, tok, read, 24)) != -1) {
      if (n == 0) { strcpy(key, tok); }
      if (n < 6) in[n] = atof(tok);
      n++;
      offset += consumed;
    }
    if (n >= 6) {
      acc = 0.0;
      for (i = 0; i < 128; i++) {
        v = in[4] * (1.0 + 0.001 * i);
        sq = sqrt(in[5]);
        d1 = (log(in[1] / in[2]) + (in[3] + 0.5 * v * v) * in[5]) / (v * sq);
        d2 = d1 - v * sq;
        acc += in[1] * normCdf(d1) - in[2] * exp(0.0 - in[3] * in[5]) * normCdf(d2);
      }
      price = acc / 128.0;
      printf("%s\t%.6f\n", key, price);
    }
  }
  free(line);
  return 0;
}
