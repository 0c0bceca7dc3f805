int main()
{
  char word[30], prevWord[30]; prevWord[0] = '\0';
  int count, val, read; count = 0;
  #pragma mapreduce combiner key(prevWord) value(count) \
    keyin(word) valuein(val) keylength(30) vallength(1) \
    firstprivate(prevWord, count)
  {
    while( (read = scanf("%s %d", word, &val)) == 2 ) {
      if(strcmp(word, prevWord) == 0 ) {
        count += val;
      } else {
        if(prevWord[0] != '\0')
          printf("%s\t%d\n", prevWord, count);
        strcpy(prevWord, word);
        count = val;
      }
    }
    if(prevWord[0] != '\0')
      printf("%s\t%d\n", prevWord, count);
  }
  return 0;
}
