#!/bin/sh
# Lists every header under src/ that nothing outside tests/ includes
# apart from its own .cc, and exits 1 if there is one. Code that nothing
# but its own test uses should be deleted, not kept alive by that test.
# The umbrella header src/core/cryptopim.h includes every public module,
# so it does not count as a user; the examples (.cpp) do.
#
# usage: check_test_only_modules.sh [REPO_ROOT]   (default: this repo)
set -eu

cd "${1:-$(dirname "$0")/..}"

umbrella=src/core/cryptopim.h
found=0
for header in $(find src -name '*.h' | sort); do
  rel=${header#src/}
  users=$(grep -rlF "#include \"$rel\"" src tools bench examples perfbench \
            --include='*.h' --include='*.cc' --include='*.cpp' |
          grep -vxF -e "${header%.h}.cc" -e "$umbrella" || true)
  if [ -z "$users" ]; then
    [ "$found" -eq 1 ] ||
      echo "headers only their own .cc and tests/ include:" >&2
    echo "$rel"
    found=1
  fi
done
exit "$found"
