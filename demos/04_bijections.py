#!/usr/bin/env python3
"""One object walked through every family.

A connected noncrossing diagram, the labelled tree with descending circular
order, the rooted tree, the coloured polygon dissection, and the six
equinumerous families around the m-angulations of a fixed polygon.
"""
from clustercomb.bijections import (
    diagram_to_forest,
    family_chain,
    forest_to_diagram,
    labelled_tree_to_rooted_angulation,
    rooted_angulation_to_tree,
    tree_to_angulation,
    tree_to_rooted,
)
from clustercomb.core import canonical_unlabelled, circular_order, validate_tree

tree = validate_tree([(1, 3, 2), (2, 3, 1), (3, 4, 3)], k=4, m=3)
sigma = circular_order(tree)
print("labelled tree:", tree.edges, " sigma:", sigma.perm)

diagram = forest_to_diagram(tree)
print("\nas a connected noncrossing diagram:", diagram.arcs)
print("and back:", diagram_to_forest(diagram).edges)

rooted = tree_to_rooted(tree)
print("\nas a rooted unlabelled tree (root = old vertex k):", rooted.tree.edges)

cang = tree_to_angulation(canonical_unlabelled(tree))
print("\nas a coloured 3-angulation of the hexagon:")
print("  diagonals:", cang.ang.diagonals)
print("  colours:  ", dict(cang.colours))

ra = labelled_tree_to_rooted_angulation(tree)
print("rooted at face", ra.root, "-> recovers the tree?",
      rooted_angulation_to_tree(ra) == tree)

print("\nthe six-family chain at k=2, m=3, starting from a family-(2) tree:")
member = validate_tree([(1, 2, 2), (1, 3, 1)], k=3, m=3)
print("  family 2 (tree):        ", member.edges)
print("  family 1 (diagram):     ", family_chain(member, 2, 1).arcs)
print("  family 3 (rooted tree): ", family_chain(member, 2, 3).tree.edges)
print("  family 4 (angulation):  ", family_chain(member, 2, 4).diagonals)
print("  family 5 (rooted tree): ", family_chain(member, 2, 5).tree.edges)
print("  family 6 (plane tree):  ", family_chain(member, 2, 6).word)
print("  back from 6 to 2:       ", family_chain(family_chain(member, 2, 6), 6, 2).edges)
