// Listing 1 with a call no engine implements: before the call check this
// compiled with only an HD011 note and then dropped every record at run
// time ("interpreter error: unknown function strcat").
// compile: semantic error (line 18): call to unknown function 'strcat'
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
