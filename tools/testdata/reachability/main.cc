#include "lib.h"

int main(int argc, char**) { return robustmap::fixture::Reached(argc) == 2; }
