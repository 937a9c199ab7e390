#!/usr/bin/env bash
# List every value a lib/**/*.mli exports whose name appears as a word in no
# .ml/.mli file under lib, bin, bench, test, perfbench or examples other than
# its own module's .ml/.mli pair. Such an export has no user: drop it from the
# interface, and delete it if nothing in its module uses it either.
#
# Usage: scripts/check_unused_exports.sh   (from anywhere in the repository)
# Prints one "path/to/module.mli: name" line per unused export and exits 1 if
# it printed any; exits 0 silently otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."

roots=(lib bin bench test perfbench examples)
unused=0
while IFS= read -r mli; do
  own_ml="${mli%.mli}.ml"
  names=$(sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$mli" | sort -u)
  for name in $names; do
    users=$(grep -rlw --include='*.ml' --include='*.mli' -e "$name" "${roots[@]}" \
      | grep -vxF -e "$mli" -e "$own_ml" || true)
    if [ -z "$users" ]; then
      echo "$mli: $name"
      unused=1
    fi
  done
done < <(find lib -name '*.mli' | sort)
exit "$unused"
