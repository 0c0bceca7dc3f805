// The same mapper with `strcat` written in the program: a function of
// the program is not an unknown call, and both engines run it.
int strcat(char *dst, char *src)
{
  int n, i;
  n = strlen(dst);
  for (i = 0; src[i] != '\0'; i++) {
    dst[n + i] = src[i];
  }
  dst[n + i] = '\0';
  return n + i;
}

int main()
{
  char word[30], *line;
  size_t nbytes = 10000;
  int read, linePtr, offset, one;
  line = (char*) malloc(nbytes*sizeof(char));
  #pragma mapreduce mapper key(word) value(one) \
    keylength(30) vallength(1)
  while( (read = getline(&line, &nbytes, stdin)) != -1) {
    linePtr = 0;
    offset = 0;
    one = 1;
    while( (linePtr = getWord(line, offset, word, read, 30)) != -1) {
      strcat(word, "x");
      printf("%s\t%d\n", word, one);
      offset += linePtr;
    }
  }
  free(line);
  return 0;
}
